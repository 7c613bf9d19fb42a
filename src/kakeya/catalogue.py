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

# Largest accepted ``samples``.  Traced peak bytes per sample at 10**5
# (tracemalloc, serial, in-process): ArcConsistency 724, ExtDisjoint 368,
# IntDisjoint 216, IsoscelesMinimality 155, FArgmax 64, JGammaRatio 40,
# SectorMeasure 19 (its sorted disk angles and one block of its cloud; 9
# at 10**6) and the grid checks HMinAtZero and CMin under 1.  They grow
# linearly, so at the limit ArcConsistency traces about 2.9 GB and
# ExtDisjoint about 1.5 GB in their worker processes.
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
