"""The catalogue of verification checks: their names, the default seed and the
largest sample count.

Plain data, free of numpy, so that the command line can build its parser
without loading the checks; :mod:`kakeya.oracle` runs them and re-exports
these names.
"""

from __future__ import annotations

import enum

__all__ = ["DEFAULT_SEED", "MAX_SAMPLES", "CheckId"]

DEFAULT_SEED = 7

# Largest accepted ``samples``.  The disjointness checks peak at about
# 260 bytes per pair while drawing their pairs (their overlap test needs
# about 230), IsoscelesMinimality, ArcConsistency and FArgmax at about
# 50 bytes per sample and SectorMeasure at about 11 per cloud point (its
# sorted disk angles), so a run at the limit stays near 1 GB; the
# largest default, SectorMeasure's 10**6, takes about 9 MB.
MAX_SAMPLES = 4_000_000


class CheckId(enum.Enum):
    """Closed enumeration of the verifiable geometric claims."""

    ISOSCELES_MINIMALITY = "IsoscelesMinimality"
    H_MIN_AT_ZERO = "HMinAtZero"
    EXT_DISJOINT = "ExtDisjoint"
    INT_DISJOINT = "IntDisjoint"
    JGAMMA_RATIO = "JGammaRatio"
    C_MIN = "CMin"
    F_ARGMAX = "FArgmax"
    SECTOR_MEASURE = "SectorMeasure"
    ARC_CONSISTENCY = "ArcConsistency"
