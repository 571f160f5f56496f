import json
import tracemalloc
from collections import Counter

import pytest

from spinbrauer import cellular, linalg, verify
from spinbrauer.diagrams import AlgebraElement, SpinDiagram, enumerate_basis, parse_diagram
from spinbrauer.multiply import multiply_diagrams
from spinbrauer.realization import SpaceSpec, commutant_dimension, realize_diagram
from spinbrauer.scalars import DeltaPolynomial, RootTwoNumber
from spinbrauer.verify import (
    ResourceBoundError,
    VerificationReport,
    brauer_from_spin,
    brauer_multiply,
    brauer_to_spin,
    verify_associativity,
    verify_brauer_consistency,
    verify_cell_symmetry,
    verify_circuit_scaling,
    verify_clifford_relation,
    verify_equivariance,
    verify_filtration,
    verify_homomorphism,
    verify_involution_compatibility,
    verify_modmult,
    verify_rank,
    verify_surjectivity,
)

CUP_CAP = SpinDiagram(2, (), (), ((1, 2),), ((1, 2),), ())


def test_report_requires_witness_on_failure():
    with pytest.raises(AssertionError):
        VerificationReport("x", {}, False)


def test_report_json_round_trips():
    report = VerificationReport("x", {"n": 1}, True, info={"rank": 2})
    assert json.loads(json.dumps(report.to_json())) == {
        "check": "x", "parameters": {"n": 1}, "passed": True, "info": {"rank": 2},
    }


def test_brauer_single_loop():
    loops, matching = brauer_multiply(
        brauer_from_spin(CUP_CAP), brauer_from_spin(CUP_CAP), 2
    )
    assert loops == 1
    assert brauer_to_spin(2, matching) == CUP_CAP
    assert multiply_diagrams(CUP_CAP, CUP_CAP).terms == {
        CUP_CAP: DeltaPolynomial.delta(1)
    }


def test_brauer_round_trip():
    for d in enumerate_basis(2):
        if d.top_isolated or d.bottom_isolated:
            continue
        assert brauer_to_spin(2, brauer_from_spin(d)) == d


@pytest.mark.parametrize("n", [1, 2, 3])
def test_brauer_consistency(n):
    assert verify_brauer_consistency(n).passed


def test_homomorphism_small():
    assert verify_homomorphism(1, 3).passed
    report = verify_homomorphism(2, 3, mode="random", samples=10, seed=4)
    assert report.passed and report.parameters["pairs"] == 10


def test_homomorphism_bound():
    with pytest.raises(ResourceBoundError):
        verify_homomorphism(3, 9, bound=100)


def test_homomorphism_failure_names_first_differing_entry(monkeypatch):
    def wrong_product(top, bottom):
        return multiply_diagrams(top, bottom) + AlgebraElement.from_diagram(top)

    monkeypatch.setattr(verify, "multiply_diagrams", wrong_product)
    n, N = 2, 3
    report = verify_homomorphism(n, N)
    assert not report.passed
    ce = report.counterexample
    top, bottom = parse_diagram(ce["top"]), parse_diagram(ce["bottom"])
    space = SpaceSpec(N, n)
    realize = verify._Realizer(space)
    lhs = realize.element(wrong_product(top, bottom).evaluate_at(N), N)
    rhs = realize_diagram(bottom, space) @ realize_diagram(top, space)
    entry = ce["entry"]
    row, col = entry["row"], entry["col"]
    left = lhs.column(col).get(row, RootTwoNumber(0))
    right = rhs.column(col).get(row, RootTwoNumber(0))
    assert left != right
    assert (left.to_json(), right.to_json()) == (entry["lhs"], entry["rhs"])
    assert json.loads(json.dumps(report.to_json())) == report.to_json()


def test_equivariance_failure_names_first_differing_entry(monkeypatch):
    # Doubling the action on the spin factor alone breaks the commutation.
    act_so = verify.act_so
    monkeypatch.setattr(verify, "act_so", lambda pair, space: (
        act_so(pair, space).scale(RootTwoNumber(2)) if space.n == 0 else act_so(pair, space)))
    report = verify_equivariance(4, "invariant")
    assert not report.passed
    # The immersion applies after the action on the spin factor: the
    # doubled side is the left one.
    ce = report.counterexample
    # The first so(4) basis pair, w1 ^ w2, already moves the spin factor.
    assert (ce["symbol"], ce["n"], ce["positions"]) == ("(0, 1)", 0, "(1, 2)")
    entry = ce["entry"]
    assert 0 <= entry["row"] < 4 * 4 * 4 and 0 <= entry["col"] < 4
    left, right = (RootTwoNumber.from_json(entry[k]) for k in ("lhs", "rhs"))
    assert right and left == right * 2


def test_homomorphism_rejects_unknown_mode():
    with pytest.raises(ValueError):
        verify_homomorphism(1, 3, mode="sometimes")


def test_equivariance_all_kinds_at_three():
    for kind in ("projection", "injection", "immersion", "contraction",
                 "swap", "invariant"):
        assert verify_equivariance(3, kind).passed
    with pytest.raises(ValueError, match="unknown map kind 'bogus'"):
        verify_equivariance(3, "bogus")


def test_circuit_scaling_representatives():
    assert verify_circuit_scaling(3, "IV", 0).passed
    assert verify_circuit_scaling(5, "II", 1).passed
    assert verify_circuit_scaling(4, "I", 1).passed
    assert verify_circuit_scaling(3, "V", 2).passed


def test_circuit_scaling_rejects_bad_plan():
    with pytest.raises(ValueError):
        verify_circuit_scaling(3, "I", 0)
    with pytest.raises(ValueError):
        verify_circuit_scaling(3, "VI", 1)
    with pytest.raises(ValueError):
        verify_circuit_scaling(3, "IV", -1)


def test_circuit_scaling_bound_checked_before_work():
    # The plans contract as they go: at most three open slots (four for
    # type I), so N = 5 peaks at 5^3 * 4 = 500 and N = 8 at 8^4 * 16.
    with pytest.raises(ResourceBoundError, match="total dimension 500 exceeds"):
        verify_circuit_scaling(5, "II", 2, bound=499)
    assert verify_circuit_scaling(5, "II", 2, bound=500).passed
    with pytest.raises(ResourceBoundError, match="total dimension 65536 exceeds"):
        verify_circuit_scaling(8, "I", 2)


def test_circuit_plan_is_bounded_before_it_is_built():
    # A 10^5-arc plan is walked for its width, not stored, before the bound.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBoundError):
            verify_circuit_scaling(3, "IV", 10**5, bound=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bad_circuit_plan_fails_before_any_map(monkeypatch):
    def no_composer(N):
        raise AssertionError("a map was built")

    monkeypatch.setattr(verify, "_SlotComposer", no_composer)
    for circuit_type, arcs in (("I", 0), ("VI", 1), ("IV", -1)):
        with pytest.raises(ValueError):
            verify_circuit_scaling(3, circuit_type, arcs)


def test_clifford_relation():
    assert verify_clifford_relation(3).passed


def test_rank_asserted_range():
    report = verify_rank(1, 3)
    assert report.passed and report.info == {
        "basis_size": 2, "rank": 2, "asserted": True,
    }


def test_rank_informational_below_stability():
    report = verify_rank(2, 2)
    assert report.passed
    assert report.info["asserted"] is False
    assert report.info["rank"] < report.info["basis_size"]


@pytest.mark.parametrize("n, N, rank", [(3, 3, 51), (3, 4, 70), (3, 5, 75)])
def test_deficient_ranks_below_stability(n, N, rank):
    report = verify_rank(n, N)
    assert report.passed and report.info == {
        "basis_size": 76, "rank": rank, "asserted": False,
    }


@pytest.mark.parametrize("N", [6, 7])
def test_full_rank_at_n3(N):
    report = verify_rank(3, N)
    assert report.passed and report.info == {
        "basis_size": 76, "rank": 76, "asserted": True,
    }


@pytest.mark.parametrize("n, N", [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
def test_block_columns_see_only_top_arcs_inside_their_set(n, N):
    # The property the block certificate rests on: on the columns that the
    # slot contents of a top-arc set A select, a diagram vanishes unless its
    # top arcs lie inside A, and A's own group does not vanish.
    space = SpaceSpec(N, n)
    basis = enumerate_basis(n)
    for arcs in {d.top_arcs for d in basis}:
        contents = verify._block_contents(arcs, space)
        for d in basis:
            nnz = realize_diagram(d, space, contents).nnz()
            if not set(d.top_arcs) <= set(arcs):
                assert nnz == 0, (d, arcs)
            elif d.top_arcs == arcs:
                assert nnz > 0, (d, arcs)


def test_blocks_certify_independent_realizations():
    for n, N in [(0, 2), (1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (3, 6), (3, 7)]:
        assert verify._blocks_certify(enumerate_basis(n), SpaceSpec(N, n)), (n, N)


def test_rank_falls_back_to_elimination_when_a_block_fails(monkeypatch):
    basis = enumerate_basis(2)
    doubled = basis + [basis[3]]
    assert not verify._blocks_certify(doubled, SpaceSpec(6, 2))
    calls = Counter()
    exact = verify.rank_of_vectors

    def counted(vectors, *, ceiling):
        calls["rank_of_vectors", ceiling] += 1
        return exact(vectors, ceiling=ceiling)

    monkeypatch.setattr(verify, "enumerate_basis", lambda n: doubled)
    monkeypatch.setattr(verify, "rank_of_vectors", counted)
    report = verify_rank(2, 6)
    # The elimination runs once, under the commutant dimension of (2, 6).
    assert calls == {("rank_of_vectors", 10): 1}
    assert not report.passed
    assert report.info == {"basis_size": 11, "rank": 10, "asserted": True}
    assert report.counterexample == {"rank": 10, "basis_size": 11}


def test_rank_elimination_stops_at_the_commutant_dimension(monkeypatch):
    # (3, 5) has rank 75 of 76: one prime reaches the ceiling, where the
    # Hadamard bound alone needs ten.
    calls = Counter()
    rank_mod = linalg._rank_mod

    def counted(vectors, p):
        calls["_rank_mod"] += 1
        return rank_mod(vectors, p)

    monkeypatch.setattr(linalg, "_rank_mod", counted)
    assert verify_rank(3, 5).info["rank"] == 75
    assert calls == {"_rank_mod": 1}


@pytest.mark.parametrize("n", range(4))
def test_vacuum_columns_keep_the_rank(n):
    # V^(x)n (x) |0> generates V^(x)n (x) Delta under Pin(N); the restricted
    # rank is found without a ceiling, the whole one under the true ceiling.
    basis = enumerate_basis(n)
    for N in range(2, 6):
        space = SpaceSpec(N, n)
        whole = [realize_diagram(d, space).flatten() for d in basis]
        vacuum = [realize_diagram(d, space, [range(N)] * n).flatten() for d in basis]
        assert linalg.rank_of_vectors(vacuum) == linalg.rank_of_vectors(
            whole, ceiling=commutant_dimension(space)), (n, N)


def test_rank_path_builds_no_root_two_number(monkeypatch):
    def refuse(self, a=0, b=0):
        raise AssertionError("a RootTwoNumber was built")

    monkeypatch.setattr(RootTwoNumber, "__init__", refuse)
    assert verify_rank(3, 2).info["rank"] == 20
    assert verify_rank(2, 6).info["rank"] == 10


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("N", range(2, 8))
def test_surjectivity(n, N):
    report = verify_surjectivity(n, N)
    size = len(enumerate_basis(n))
    assert report.passed, report.counterexample
    assert report.info["basis_size"] == size
    assert report.info["rank"] == report.info["commutant_dim"]
    if N >= 2 * n:
        assert report.info["rank"] == size


@pytest.mark.parametrize("n, N, offset, info", [
    # A ceiling above or below the rank: the Hadamard bound finds the rank 6.
    (2, 2, 1, {"basis_size": 10, "commutant_dim": 7, "rank": 6}),
    (2, 2, -1, {"basis_size": 10, "commutant_dim": 5, "rank": 6}),
    # Full rank certified by the blocks, but not the commutant dimension.
    (2, 4, 1, {"basis_size": 10, "commutant_dim": 11, "rank": 10}),
])
def test_surjectivity_failure_names_both_numbers(monkeypatch, n, N, offset, info):
    true_dim = verify.commutant_dimension
    monkeypatch.setattr(verify, "commutant_dimension",
                        lambda space: true_dim(space) + offset)
    report = verify_surjectivity(n, N)
    assert not report.passed
    assert report.info == report.counterexample == info


def test_surjectivity_bound_checked_before_any_realization(monkeypatch):
    monkeypatch.setattr(verify, "realize_diagram", None)
    monkeypatch.setattr(verify, "enumerate_basis", None)
    with pytest.raises(ResourceBoundError, match="total dimension 500 exceeds bound 499"):
        verify_surjectivity(3, 5, bound=499)


@pytest.mark.parametrize("map_kind", [
    "projection", "injection", "immersion", "contraction", "swap", "invariant"])
def test_equivariance_builds_each_action_once(monkeypatch, map_kind):
    calls = Counter()
    act_so, act_gamma = verify.act_so, verify.act_gamma

    def counted_so(pair, space):
        calls[pair, space] += 1
        return act_so(pair, space)

    def counted_gamma(space):
        calls["gamma", space] += 1
        return act_gamma(space)

    monkeypatch.setattr(verify, "act_so", counted_so)
    monkeypatch.setattr(verify, "act_gamma", counted_gamma)
    assert verify_equivariance(5, map_kind).passed
    assert calls and max(calls.values()) == 1


def test_associativity_symbolic():
    assert verify_associativity(2, samples=25, seed=3).passed


def test_filtration():
    assert verify_filtration(2).passed


def test_modmult_runs_one_reference_product_per_middle_datum(monkeypatch):
    basis = enumerate_basis(3)
    middles = {cellular._middle_rows(a, b) for a in basis for b in basis
               if a.through_count == b.through_count}
    calls = Counter()
    maximal_term = cellular._maximal_term

    def counted(*args):
        calls["_maximal_term"] += 1
        return maximal_term(*args)

    monkeypatch.setattr(cellular, "_maximal_term", counted)
    assert verify_modmult(3).passed
    assert calls["_maximal_term"] == len(middles) == 62
    # The prediction itself keeps no table: each call runs its reference product.
    calls.clear()
    for _ in range(3):
        cellular.predicted_leading_term(basis[5], basis[5])
    assert calls["_maximal_term"] == 3


def test_modmult_and_cell_checks():
    assert verify_modmult(2).passed
    assert verify_cell_symmetry(2).passed
    assert verify_involution_compatibility(2).passed


def test_reports_are_deterministic():
    a = verify_homomorphism(2, 3, mode="random", samples=5, seed=11)
    b = verify_homomorphism(2, 3, mode="random", samples=5, seed=11)
    assert a.to_json() == b.to_json()
