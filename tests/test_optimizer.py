"""Optimizer tests: the balance closed form, the compass search's reach,
tie-break and cost, and the iterative refinement contracts."""

from __future__ import annotations

import itertools
import math

import pytest

from kakeya import bounds, optimizer
from kakeya.bounds import (
    RLAMBDA_PAPER_LITERAL,
    RLAMBDA_REPRODUCING,
    BoundParams,
    THEOREM_DEFAULTS,
)
from kakeya.errors import CaseIIInfeasible, DomainError, EmptyFeasibleSet
from kakeya.optimizer import SearchBox


def test_balance_p_default_point():
    p = optimizer._balanced_point(THEOREM_DEFAULTS.a, 0.25, 0.9, RLAMBDA_REPRODUCING)[2]
    assert p == pytest.approx(0.9046657225829937, abs=1e-12)
    params = BoundParams(a=THEOREM_DEFAULTS.a, r0=0.25, p=p, lam=0.9)
    breakdown = bounds.theorem_bound(params, tol=1e-12)
    case_i, case_ii = breakdown.case_i, breakdown.case_ii
    assert abs(case_i - case_ii) <= 1e-11
    # balanced value recorded against the closed-form chain
    assert case_i == pytest.approx(0.010217836828105436, abs=1e-11)


def test_balance_p_stays_in_unit_interval():
    for a, r0, lam in ((0.05, 0.2, 0.5), (0.1, 0.3, 0.0), (0.02, 0.18, 1.0), (0.3, 0.45, 0.9)):
        p = optimizer._balanced_point(a, r0, lam, RLAMBDA_REPRODUCING)[2]
        assert 0.0 <= p <= 1.0


def test_optimize_point_box_evaluates_that_point():
    base = THEOREM_DEFAULTS
    box = SearchBox(a=(base.a, base.a), r0=(base.r0, base.r0), lam=(base.lam, base.lam))
    result = optimizer.optimize(box)
    assert result.best.a == base.a
    assert result.best.r0 == base.r0
    assert result.best.lam == base.lam
    assert result.best.p == pytest.approx(0.9046657225829937, abs=1e-12)
    # the balanced value exceeds the trivial a/2 term here, so the
    # objective (and the breakdown minimum) pins to exactly 1/98
    assert result.breakdown.final == 1.0 / 98.0
    # the centre is the only point, so the trace holds it alone
    assert result.trace == [(result.best, 1.0 / 98.0)]


def test_optimize_is_deterministic():
    box = SearchBox(a=(0.06, 0.066), r0=(0.22, 0.24), lam=(0.88, 0.93))
    first = optimizer.optimize(box)
    second = optimizer.optimize(box)
    assert first.best == second.best
    assert first.breakdown == second.breakdown
    assert first.trace == second.trace


def test_optimize_beats_the_default_point_objective():
    box = SearchBox(a=(0.06, 0.066), r0=(0.22, 0.24), lam=(0.88, 0.93))
    result = optimizer.optimize(box)
    default_value = min(
        bounds.theorem_bound(THEOREM_DEFAULTS).final, THEOREM_DEFAULTS.a / (2.0 * math.pi)
    )
    assert result.breakdown.final >= default_value


def test_optimize_derives_once_per_evaluation(monkeypatch):
    box = SearchBox(a=(0.06, 0.066), r0=(0.22, 0.24), lam=(0.88, 0.93))
    expected = optimizer.optimize(box)
    calls = {"evaluations": 0, "derive_params": 0, "_integral": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(optimizer, "_balanced_point", counted("evaluations", optimizer._balanced_point))
    monkeypatch.setattr(bounds, "derive_params", counted("derive_params", bounds.derive_params))
    monkeypatch.setattr(bounds, "_integral", counted("_integral", bounds._integral))
    result = optimizer.optimize(box)
    assert result == expected
    # the centre, then a first round that probes each of the three axes
    assert calls["evaluations"] >= 1 + 3
    # one of each per evaluation, plus one each for the final breakdown
    assert calls["derive_params"] == calls["evaluations"] + 1
    assert calls["_integral"] == calls["evaluations"] + 1


SEC41_BOX = SearchBox(a=(0.06473, 0.06474), r0=(0.22785, 0.22786), lam=(0.90696, 0.90697))
TEST_BOX = SearchBox(a=(0.06, 0.066), r0=(0.22, 0.24), lam=(0.88, 0.93))


def _axis(lo, hi, grid):
    return [lo + (hi - lo) * k / (grid - 1) for k in range(grid)]


def lattice_objectives(box, grid, convention):
    """The objective at every feasible point of a grid**3 lattice spanning ``box``."""
    axes = (_axis(*interval, grid) for interval in (box.a, box.r0, box.lam))
    for point in itertools.product(*axes):
        try:
            yield optimizer._balanced_point(*point, convention)[0]
        except CaseIIInfeasible:
            pass


@pytest.mark.parametrize("box, convention", [
    (SEC41_BOX, RLAMBDA_REPRODUCING),
    (SEC41_BOX, RLAMBDA_PAPER_LITERAL),
    (TEST_BOX, RLAMBDA_REPRODUCING),
    (TEST_BOX, RLAMBDA_PAPER_LITERAL),
], ids=["sec41-reproducing", "sec41-paper-literal", "test-box-reproducing",
        "test-box-paper-literal"])
def test_no_lattice_point_beats_the_search(box, convention):
    result = optimizer.optimize(box, convention)
    assert max(lattice_objectives(box, 16, convention)) <= result.breakdown.final


def test_objective_ties_break_toward_the_larger_balanced_value():
    # at a = pi/49 the balanced value exceeds a/(2 pi) across the box, so
    # the objective is flat at 1/98 and only the tie-break can move
    a = THEOREM_DEFAULTS.a
    box = SearchBox(a=(a, a), r0=(0.24, 0.26), lam=(0.85, 0.95))
    result = optimizer.optimize(box)
    assert result.breakdown.final == 1.0 / 98.0
    balanced = min(result.breakdown.case_i, result.breakdown.case_ii)
    lattice = itertools.product(_axis(0.24, 0.26, 16), _axis(0.85, 0.95, 16))
    assert all(
        optimizer._balanced_point(a, r0, lam, RLAMBDA_REPRODUCING)[1] <= balanced
        for r0, lam in lattice
    )


def test_sec41_search_lands_on_the_published_edges():
    result = optimizer.optimize(SEC41_BOX)
    assert (result.best.r0, result.best.lam) == (0.22786, 0.90696)
    assert abs(result.breakdown.case_i - result.breakdown.half_a) <= 1e-10
    assert result.breakdown.final >= 0.010302214733313277


def test_search_finds_the_plain_optimum_of_a_wide_box():
    # the scheme's plain optimum pi/96.89, far from the sec41 box in lambda
    result = optimizer.optimize(SearchBox(a=(0.02, 0.12), r0=(0.15, 0.45), lam=(0.0, 1.0)))
    assert result.breakdown.final >= 0.0103213
    best = result.best
    assert (best.a, best.r0, best.lam) == pytest.approx((0.064851, 0.23763, 0.80332), abs=1e-5)


def test_sec41_search_costs_at_most_72_evaluations(monkeypatch):
    # the compass search probes 72 distinct points of this box, and evaluates each once
    calls = []
    balanced_point = optimizer._balanced_point

    def counted(*args):
        calls.append(args)
        return balanced_point(*args)

    monkeypatch.setattr(optimizer, "_balanced_point", counted)
    optimizer.optimize(SEC41_BOX)
    assert len(calls) <= 72
    assert len(set(calls)) == len(calls)


def test_optimize_moves_off_an_infeasible_start(monkeypatch):
    balanced_point = optimizer._balanced_point

    def infeasible_above(a, r0, lam, convention):
        if lam > 0.9:
            raise CaseIIInfeasible("forced")
        return balanced_point(a, r0, lam, convention)

    monkeypatch.setattr(optimizer, "_balanced_point", infeasible_above)
    # the centre, lambda = 0.905, is infeasible; the first lambda step down is not
    result = optimizer.optimize(TEST_BOX)
    assert result.best.lam <= 0.9
    assert result.trace and result.trace[-1] == (result.best, result.breakdown.final)


def test_optimize_raises_on_empty_feasible_set(monkeypatch):
    def always_infeasible(a, r0, lam, convention):
        raise CaseIIInfeasible("forced")

    monkeypatch.setattr(optimizer, "_balanced_point", always_infeasible)
    box = SearchBox(a=(0.06, 0.066), r0=(0.22, 0.24), lam=(0.88, 0.93))
    with pytest.raises(EmptyFeasibleSet):
        optimizer.optimize(box)


def test_optimize_domain_errors_propagate():
    # an input outside the bound's domain is a usage error, not an
    # infeasible point: it must not turn into EmptyFeasibleSet
    with pytest.raises(DomainError, match="unknown r_lambda convention"):
        optimizer.optimize(TEST_BOX, "typo")
    with pytest.raises(DomainError, match="lambda must lie in"):
        optimizer.optimize(SearchBox(a=(0.06, 0.066), r0=(0.22, 0.24), lam=(1.1, 1.2)))
    with pytest.raises(DomainError, match="r0 must be >= 0.15"):
        optimizer.optimize(SearchBox(a=(0.05, 0.05), r0=(0.12, 0.12), lam=(0.9, 0.9)))


def test_optimize_on_a_case_ii_infeasible_point_is_an_empty_feasible_set():
    # r1 rounds to exactly 1 here (see test_case_ii_infeasibility_is_a_typed_error)
    box = SearchBox(a=(1e-200, 1e-200), r0=(0.25, 0.25), lam=(1.0, 1.0))
    with pytest.raises(EmptyFeasibleSet):
        optimizer.optimize(box, RLAMBDA_PAPER_LITERAL)


def test_search_box_validation():
    with pytest.raises(DomainError):
        SearchBox(a=(0.2, 0.3), r0=(0.25, 0.3), lam=(0.5, 0.6))
    with pytest.raises(DomainError):
        SearchBox(a=(0.06, 0.05), r0=(0.2, 0.25), lam=(0.5, 0.6))
    with pytest.raises(DomainError):
        SearchBox(a=(0.05, 0.06), r0=(0.2, 0.5), lam=(0.5, 0.6))
    with pytest.raises(DomainError):
        SearchBox(a=(0.0, 0.06), r0=(0.2, 0.25), lam=(0.5, 0.6))


# (5 - 2*sqrt(2))/24, the smallest area coefficient of the known
# tricuspoid-style constructions: every valid lower bound stays below it
UPPER_BOUND_COEFF = (5.0 - 2.0 * math.sqrt(2.0)) / 24.0

# a start where case_i is the active term, so the sequence rises
CASE_I_START = BoundParams(a=0.0641, r0=0.25, p=0.5, lam=0.9)


def test_refine_iterative_contracts():
    for start in (THEOREM_DEFAULTS, CASE_I_START):
        assert optimizer.refine_iterative(start, 0) == [bounds.theorem_bound(start).final]
        seq = optimizer.refine_iterative(start, 8, tol=0.0)
        assert all(b >= a for a, b in zip(seq, seq[1:]))
        assert all(v <= UPPER_BOUND_COEFF for v in seq)
        increments = [b - a for a, b in zip(seq, seq[1:])]
        assert all(later <= earlier + 1e-15 for earlier, later in zip(increments, increments[1:]))
    with pytest.raises(DomainError):
        optimizer.refine_iterative(THEOREM_DEFAULTS, -1)


@pytest.mark.parametrize("max_iter, tol", [
    (1.5, 1e-9), ("3", 1e-9), (None, 1e-9), (-1, 1e-9),
    (3, math.nan), (3, -1e-9), (3, -math.inf),
])
def test_refine_iterative_rejects_bad_inputs(max_iter, tol):
    with pytest.raises(DomainError):
        optimizer.refine_iterative(THEOREM_DEFAULTS, max_iter, tol)


def test_refine_iterative_reads_one_term_record(monkeypatch):
    expected = optimizer.refine_iterative(THEOREM_DEFAULTS, 10)
    calls = {"derive_params": 0, "_integral": 0, "theorem_bound": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    for key in calls:
        monkeypatch.setattr(bounds, key, counted(key, getattr(bounds, key)))
    assert optimizer.refine_iterative(THEOREM_DEFAULTS, 10) == expected
    assert calls == {"derive_params": 1, "_integral": 1, "theorem_bound": 0}


def test_refine_iterative_stops_when_converged():
    seq = optimizer.refine_iterative(THEOREM_DEFAULTS, 50, tol=1e-9)
    assert len(seq) <= 51
    if len(seq) < 51:
        assert seq[-1] - seq[-2] <= 1e-9


def test_refine_iterative_with_zero_tol_stops_at_the_first_zero_increment():
    # at the theorem point half_a or case_ii pins the sequence from the start
    assert optimizer.refine_iterative(THEOREM_DEFAULTS, 1000, tol=0.0) == [
        bounds.theorem_bound(THEOREM_DEFAULTS).final
    ] * 2
    # case_i rises until its increments round to 0
    seq = optimizer.refine_iterative(CASE_I_START, 1000, tol=0.0)
    assert len(seq) == 7
    assert seq[-1] == seq[-2] and all(a < b for a, b in zip(seq[:-2], seq[1:-1]))
