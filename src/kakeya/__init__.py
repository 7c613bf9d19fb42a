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

Importing the package loads no numpy.  The checks need it, so they run
from :mod:`kakeya.oracle`, which the package does not import.
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
    "make_triangle",
    "optimize",
    "refine_iterative",
    "theorem_bound",
]
