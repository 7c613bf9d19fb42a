"""Lower-bound machinery for star-shaped Kakeya sets.

Library layout:

- :mod:`kakeya.geom`: needle triangles as their (alpha, delta, t) chart,
  their outer areas and arcs on the cutoff circle, and the closed-form
  cross-section geometry.
- :mod:`kakeya.bounds`: the rate functions, the Case I / Case II bounds,
  and the assembled breakdown with its published constants.
- :mod:`kakeya.optimizer`: balanced-split parameter search and the
  iterative inner-bound refinement.
- :mod:`kakeya.oracle`: seeded brute-force checks of every geometric
  claim the bounds rest on; :mod:`kakeya.catalogue` names them, and
  :mod:`kakeya.workers` runs them on forked worker processes.
- :mod:`kakeya.cli`: the ``kakeya`` command.

Importing the package loads no numpy.  The names backed by
:mod:`kakeya.oracle`, which does, resolve on first access.
"""

from .bounds import (
    BoundBreakdown,
    BoundParams,
    DerivedParams,
    RLAMBDA_PAPER_LITERAL,
    RLAMBDA_REPRODUCING,
    THEOREM_DEFAULTS,
    case_i_integral,
    cunningham_bound,
    theorem_bound,
)
from .errors import (
    BracketError,
    CaseIIInfeasible,
    DomainError,
    EmptyFeasibleSet,
    KakeyaError,
)
from .catalogue import CheckId
from .geom import NeedleTriangle, make_triangle
from .optimizer import OptimizationResult, SearchBox, optimize, refine_iterative

__version__ = "0.1.0"

__all__ = [
    "BoundBreakdown",
    "BoundParams",
    "BracketError",
    "CaseIIInfeasible",
    "CheckId",
    "CheckReport",
    "DerivedParams",
    "DomainError",
    "EmptyFeasibleSet",
    "KakeyaError",
    "NeedleTriangle",
    "OptimizationResult",
    "RLAMBDA_PAPER_LITERAL",
    "RLAMBDA_REPRODUCING",
    "SearchBox",
    "THEOREM_DEFAULTS",
    "case_i_integral",
    "cunningham_bound",
    "find_h_threshold",
    "make_triangle",
    "optimize",
    "refine_iterative",
    "run_check",
    "theorem_bound",
]

_ORACLE_NAMES = frozenset(("CheckReport", "find_h_threshold", "run_check"))


def __getattr__(name):
    # PEP 562: the oracle, and numpy with it, loads when one of its names is first read
    if name in _ORACLE_NAMES:
        from . import oracle

        value = globals()[name] = getattr(oracle, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
