from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinbrauer.scalars import DeltaPolynomial, RootTwoNumber

D = DeltaPolynomial.delta


def poly(*pairs):
    return DeltaPolynomial(dict(pairs))


polys = st.builds(
    DeltaPolynomial,
    st.dictionaries(st.integers(0, 6), st.integers(-50, 50), max_size=5),
)
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
root2s = st.builds(RootTwoNumber, rationals, rationals)


def test_product_of_linear_factors():
    assert (D(1) + 1) * (D(1) - 1) == poly((2, 1), (0, -1))


def test_additive_inverse_gives_empty_table():
    s = poly((1, 2)) + poly((1, -2))
    assert not s and s.to_pairs() == []


def test_eval_substitutes_exactly():
    assert poly((2, 1), (0, -1)).eval_at(5) == 24


def test_degree_and_zero_conventions():
    assert DeltaPolynomial.zero().degree == -1
    assert poly((3, 2), (0, 1)).degree == 3
    assert DeltaPolynomial.constant(0) == DeltaPolynomial.zero()


def test_pairs_round_trip():
    p = poly((0, -3), (4, 7))
    assert DeltaPolynomial.from_pairs(p.to_pairs()) == p
    assert p.to_pairs() == [[0, -3], [4, 7]]


@pytest.mark.parametrize("pairs", [[[1.5, 2]], [[1, 2.0]], [[True, 3]], [[1, "3"]], [[0, None]]])
def test_pairs_must_hold_integers(pairs):
    with pytest.raises(TypeError):
        DeltaPolynomial.from_pairs(pairs)


@pytest.mark.parametrize("build", [
    lambda: DeltaPolynomial({0: 1.5}),
    lambda: DeltaPolynomial({0.9: 2}),
    lambda: DeltaPolynomial({True: 2}),
    lambda: DeltaPolynomial([(0, "3")]),
    lambda: DeltaPolynomial.constant(2.7),
    lambda: DeltaPolynomial.constant(True),
    lambda: DeltaPolynomial.delta(1.5),
], ids=["coeff-float", "exp-float", "exp-bool", "coeff-string", "constant-float",
        "constant-bool", "delta-float"])
def test_non_integers_rejected(build):
    with pytest.raises(TypeError, match="is not an integer"):
        build()


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        DeltaPolynomial({-1: 2})


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@given(polys, st.integers(-7, 7))
def test_evaluation_is_a_ring_map(p, k):
    q = p * p + 3 * p
    assert q.eval_at(k) == p.eval_at(k) ** 2 + 3 * p.eval_at(k)


def test_root2_norm_form():
    assert RootTwoNumber(1, 1) * RootTwoNumber(1, -1) == RootTwoNumber(-1)


def test_sqrt2_squares_to_two():
    s = RootTwoNumber.sqrt2()
    assert s * s == RootTwoNumber(2)


def test_inverse_rationalizes():
    assert RootTwoNumber(1, 1).inverse() == RootTwoNumber(-1, 1)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RootTwoNumber(0, 0).inverse()


def test_json_uses_fraction_strings():
    x = RootTwoNumber(Fraction(1, 2), Fraction(-3, 4))
    assert x.to_json() == {"a": "1/2", "b": "-3/4"}
    assert RootTwoNumber.from_json(x.to_json()) == x


@given(root2s)
def test_nonzero_elements_invert(x):
    if x:
        assert x * x.inverse() == RootTwoNumber(1)


@given(root2s, root2s, root2s)
def test_field_laws(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z


@given(root2s)
def test_norm_multiplies_with_conjugate(x):
    assert x * x.conjugate() == RootTwoNumber(x.norm())


@pytest.mark.parametrize("k", [-3, 0, 1, 7])
def test_delta_constant_is_found_under_its_int_key(k):
    c = DeltaPolynomial.constant(k)
    assert c == k and hash(c) == hash(k)
    assert {k: "x"}.get(c) == "x"
    assert {c: "x"}.get(k) == "x"


@pytest.mark.parametrize("k", [-3, 0, 1, 7])
def test_root2_rational_int_is_found_under_its_int_key(k):
    x = RootTwoNumber(k)
    assert x == k and hash(x) == hash(k)
    assert {k: "x"}.get(x) == "x"
    assert {x: "x"}.get(k) == "x"


@given(rationals, rationals, rationals)
def test_root2_adds_and_subtracts_fractions(a, b, q):
    x = RootTwoNumber(a, b)
    assert x + q == q + x == x + RootTwoNumber(q)
    assert x - q == x - RootTwoNumber(q)
    assert q - x == RootTwoNumber(q) - x


def test_root2_fraction_arithmetic_exact():
    half = Fraction(1, 2)
    assert RootTwoNumber(1, 1) - half == RootTwoNumber(half, 1)
    assert RootTwoNumber(1, 1) + half == RootTwoNumber(Fraction(3, 2), 1)


def test_root2_rejects_other_operand_types():
    x = RootTwoNumber(1, 1)
    assert x.__add__(1.5) is NotImplemented
    assert x.__sub__(1.5) is NotImplemented
    with pytest.raises(TypeError):
        x + 1.5
    with pytest.raises(TypeError):
        x - "1"
