import math
from collections import Counter

import pytest

from conftest import DEMO_B, DEMO_BOTTOM, DEMO_TOP, assert_validated
from spinbrauer.cellular import (
    CellFormError,
    PhiValue,
    beta,
    irreducible_indices,
    is_regular,
    join_partitions,
    literal_pairing_rules,
    m1,
    modmult_check,
    partitions_of,
    phi_ell,
    predicted_leading_term,
)
from spinbrauer.diagrams import (
    CellTriple,
    DiagramError,
    cell_decode,
    cell_encode,
    enumerate_S,
    enumerate_basis,
    enumerate_size_le2_partitions,
    identity_diagram,
    singletons,
)
from spinbrauer.scalars import DeltaPolynomial

D = DeltaPolynomial.delta


def blocks(*bs):
    return tuple(sorted(tuple(sorted(b)) for b in bs))


def test_three_vertex_partitions():
    assert set(enumerate_size_le2_partitions(3)) == {
        blocks((1, 2), (3,)),
        blocks((1, 3), (2,)),
        blocks((2, 3), (1,)),
        blocks((1,), (2,), (3,)),
    }


def test_partition_counts_are_involution_numbers():
    counts = [len(enumerate_size_le2_partitions(n)) for n in range(1, 6)]
    assert counts == [1, 2, 4, 10, 26]


def test_partitions_reject_negative_n():
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_size_le2_partitions(-1)


def test_singleton_counter():
    p = blocks((1, 2), (3,), (4,))
    assert m1(p) == 2 and singletons(p) == ((3,), (4,))


def test_pair_subset_counts():
    assert len(enumerate_S(2, 1)) == 2
    assert len(enumerate_S(2, 2)) == 1
    assert len(enumerate_S(2, 0)) == 2


def test_join_merges_overlapping_blocks():
    mu = blocks((1, 3), (2,), (4, 5))
    nu = blocks((1, 2), (3,), (4,), (5,))
    assert join_partitions(mu, nu) == blocks((1, 2, 3), (4, 5))


def test_beta_worked_example():
    assert beta((1, 2, 5, 6), (3, 4, 7)) == 2


def test_beta_empty():
    assert beta((), ()) == 0


def test_beta_single_removable_pair():
    assert beta((2,), (1,)) == 1


def test_beta_sorted_sets_need_no_removal():
    assert beta((1, 2), (3, 5)) == 0


def test_beta_gap_blocks_removal():
    assert beta((3,), (1,), length=3) is None


def test_beta_rejects_overlap():
    with pytest.raises(ValueError):
        beta((1,), (1,))


def test_phi_three_string_example():
    x = blocks((1,), (2,), (3,), (4,), (5,), (6,), (7, 8))
    S = ((1,), (4,), (6,))
    y = blocks((1, 3), (2,), (4,), (5,), (6, 7), (8,))
    T = ((2,), (5,), (8,))
    value = phi_ell(3, (x, S), (y, T))
    assert value == PhiValue(DeltaPolynomial.one(), 2, (0, 1, 2))
    assert value.coefficient() == DeltaPolynomial.constant(4)
    assert value.delta_power == 0


def test_phi_single_cross_transposition():
    # Derived from the product: the maximal part is 2 times the through
    # diagram, so the form is 2 * id rather than zero.
    x = blocks((1,), (2,))
    y = blocks((1,), (2,))
    value = phi_ell(1, (x, ((1,),)), (y, ((2,),)))
    assert value == PhiValue(DeltaPolynomial.one(), 1, (0,))


def test_phi_zero_when_order_cannot_be_fixed():
    x = blocks((1,), (2,), (3,))
    y = blocks((1, 2), (3,))
    assert phi_ell(1, (x, ((1,),)), (y, ((3,),))) is None


def test_phi_self_pairing_structure():
    # Self-pairing never vanishes: identity permutation, no transposition
    # factor, and a pure delta power whenever no leftover singletons remain
    # (aligned leftover singletons form crossing circuits, which correct the
    # delta power).
    for n in (1, 2, 3):
        for ell in range(n + 1):
            for x, S in enumerate_S(n, ell):
                value = phi_ell(ell, (x, S), (x, S))
                assert value is not None
                assert value.two_power == 0
                assert value.perm == tuple(range(ell))
                arcs = len(x) - m1(x)
                if m1(x) == ell:
                    assert value.circuit_factor == D(arcs)
                else:
                    assert value.circuit_factor.eval_at(1) == 1
                    assert value.circuit_factor.degree == arcs + (m1(x) - ell)


def test_phi_interleaved_circuits_pick_up_corrections():
    x = blocks((1,), (2,))
    value = phi_ell(0, (x, ()), (x, ()))
    assert value.circuit_factor == 2 * D(1) - D(2)
    assert value.delta_power is None


def test_phi_size_validation():
    with pytest.raises(ValueError):
        phi_ell(1, (blocks((1,)), ()), (blocks((1,)), ()))


@pytest.mark.parametrize("xS, yT, message", [
    ((((1, 2, 3),), ()), (((1, 2, 3),), ()), r"bottom vertices \[1, 2, 3\] not covered"),
    ((((1,), (2,)), ((3,),)), (((1,), (2,)), ((1,),)), r"top vertex 3 outside 1\.\.2"),
    ((((1,), (1,)), ()), (((1,), (2,)), ()), "bottom vertex 1 used twice"),
])
def test_phi_validates_its_partitions(xS, yT, message):
    # The partitions are caller input: the reference factors built from
    # them go through the checking constructor.
    with pytest.raises(DiagramError, match=message):
        phi_ell(len(xS[1]), xS, yT)


def test_literal_rules_match_extraction_at_small_size():
    for n in (1, 2):
        for ell in range(n + 1):
            vectors = enumerate_S(n, ell)
            for v1 in vectors:
                for v2 in vectors:
                    literal = literal_pairing_rules(ell, v1, v2)
                    value = phi_ell(ell, v1, v2)
                    assert (literal is None) == (value is None)
                    if literal is not None:
                        two, sigma = literal
                        assert value.two_power == two
                        assert value.perm == sigma


def test_phi_value_not_single_permutation_raises():
    x = blocks((1,), (2,), (3,), (4,))
    S = ((2,), (4,))
    T = ((1,), (3,))
    with pytest.raises(CellFormError):
        phi_ell(2, (x, S), (x, T))


def test_tau_symmetry_small():
    for n in (1, 2):
        for ell in range(n + 1):
            vectors = enumerate_S(n, ell)
            for v1 in vectors:
                for v2 in vectors:
                    a = phi_ell(ell, v1, v2)
                    b = phi_ell(ell, v2, v1)
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.inverted() == b


def test_modmult_identity_pair():
    assert modmult_check(identity_diagram(2), identity_diagram(2))


def test_modmult_demo_pair():
    assert DEMO_TOP.through_count == DEMO_BOTTOM.through_count == 2
    assert predicted_leading_term(DEMO_TOP, DEMO_BOTTOM) == (DEMO_B, 2 * D(1))
    assert modmult_check(DEMO_TOP, DEMO_BOTTOM)


def _outcome(f, *args):
    """f(*args), or CellFormError when it raises that."""
    try:
        return f(*args)
    except CellFormError:
        return CellFormError


def _phi_prediction(top, bottom):
    """The leading term by its defining formula: phi_ell of the middle rows,
    carried to the outer rows through sigma_1, then the pairing's
    permutation, then sigma_2."""
    ell, t1 = cell_encode(top)
    _, t2 = cell_encode(bottom)
    value = phi_ell(ell, (t1.y, t1.T), (t2.x, t2.S))
    if value is None:
        return None
    sigma = tuple(t2.sigma[value.perm[s]] for s in t1.sigma)
    return (cell_decode(ell, CellTriple(t1.x, t1.S, t2.y, t2.T, sigma)),
            value.coefficient())


def _check_prediction(top, bottom):
    """predicted_leading_term agrees with the formula, zero and raising
    alike; returns its outcome."""
    got = _outcome(predicted_leading_term, top, bottom)
    assert got == _outcome(_phi_prediction, top, bottom)
    if isinstance(got, tuple):
        assert_validated(got[0])
    return got


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_prediction_matches_the_pairing_formula(n):
    basis = enumerate_basis(n)
    for top in basis:
        for bottom in basis:
            if top.through_count == bottom.through_count:
                _check_prediction(top, bottom)


def test_prediction_matches_the_pairing_formula_at_four():
    # One pair for each ell and middle data: top's bottom row (x, S) meets
    # bottom's top row (y, T).
    outcomes = Counter()
    for ell in range(5):
        rows = enumerate_S(4, ell)
        ident = tuple(range(ell))
        for x, S in rows:
            top = cell_decode(ell, CellTriple(x, S, x, S, ident))
            for y, T in rows:
                bottom = cell_decode(ell, CellTriple(y, T, y, T, ident))
                got = _check_prediction(top, bottom)
                outcomes[got if got in (None, CellFormError) else "term"] += 1
    assert sum(outcomes.values()) == 517
    assert outcomes[CellFormError] == 6


@pytest.mark.parametrize("n", [0, 1, 2])
def test_modmult_exhaustive(n):
    basis = enumerate_basis(n)
    for d1 in basis:
        for d2 in basis:
            assert modmult_check(d1, d2)


def test_dimension_identity():
    for n in range(4):
        total = sum(
            math.factorial(ell) * len(enumerate_S(n, ell)) ** 2
            for ell in range(n + 1)
        )
        assert total == len(enumerate_basis(n))
    total4 = sum(
        math.factorial(ell) * len(enumerate_S(4, ell)) ** 2 for ell in range(5)
    )
    assert total4 == 764


def test_partitions_enumeration_order():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]


def test_regularity():
    assert is_regular((2, 2), 3)
    assert not is_regular((2, 2), 2)
    assert is_regular((5,), 0)
    assert not is_regular((1,), 1)


def test_irreducible_indices_char_zero():
    assert irreducible_indices(2, 0) == [
        (0, ()), (1, (1,)), (2, (2,)), (2, (1, 1)),
    ]


def test_irreducible_indices_char_two():
    assert irreducible_indices(2, 2) == [(0, ()), (1, (1,)), (2, (2,))]


@pytest.mark.parametrize("char", [1, 4, 9])
def test_irreducible_indices_reject_a_characteristic_no_field_has(char):
    for delta_zero in (False, True):
        with pytest.raises(ValueError, match="neither 0 nor a prime"):
            irreducible_indices(2, char, delta_zero)


def test_irreducible_indices_delta_zero():
    assert irreducible_indices(2, 0, delta_zero=True) == [(0, ())]


def test_irreducible_count_cross_check():
    # Independent oracle: count partitions with no part repeated char times.
    def count(m, char):
        def gen(rest, maxpart):
            if rest == 0:
                yield ()
                return
            for part in range(min(rest, maxpart), 0, -1):
                for tail in gen(rest - part, part):
                    yield (part,) + tail

        total = 0
        for lam in gen(m, m if m else 1):
            if char == 0 or all(lam.count(p) < char for p in set(lam)):
                total += 1
        return total

    for n in range(5):
        for char in (0, 2, 3):
            expected = sum(count(m, char) for m in range(n + 1))
            assert len(irreducible_indices(n, char)) == expected
