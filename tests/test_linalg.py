import random
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import given, strategies as st

from root_two import inverse
from spinbrauer import linalg
from spinbrauer.diagrams import enumerate_basis
from spinbrauer.linalg import LinearMap, rank_of_vectors
from spinbrauer.realization import SpaceSpec, act_so, realize_diagram, so_basis
from spinbrauer.scalars import RootTwoNumber


def r2(a, b=0):
    return RootTwoNumber(a, b)


def as_pairs(vec):
    """A RootTwoNumber vector as the integer pairs rank_of_vectors takes."""
    return LinearMap(1, max(vec, default=-1) + 1, {0: vec}).flatten()


def random_map(rng, rows, cols, density=0.3, fractional=False):
    entries = {}
    for j in range(cols):
        col = {}
        for i in range(rows):
            if rng.random() < density:
                if fractional:
                    col[i] = RootTwoNumber(
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    )
                else:
                    col[i] = r2(rng.randint(-4, 4), rng.randint(-2, 2))
        entries[j] = {i: v for i, v in col.items() if v}
    return LinearMap(cols, rows, entries)


def test_identity_rank():
    assert LinearMap.identity(3).rank() == 3


def test_zero_map_rank():
    assert LinearMap.zero(4, 4).rank() == 0


def test_span_of_realized_basis_on_one_strand():
    # Independent oracle: realize both diagrams and row-reduce the flattenings.
    space = SpaceSpec(3, 1)
    vectors = [realize_diagram(d, space).flatten() for d in enumerate_basis(1)]
    assert len(vectors) == 2
    assert rank_of_vectors(vectors) == 2


def test_flatten_is_den_times_entries_as_pairs():
    space = SpaceSpec(3, 1)
    m = act_so(so_basis(space)[0], space)
    den = m._den
    assert den == 2  # the so(N) action halves
    flat = {r * m.domain_dim + j: (int(v.a * den), int(v.b * den)) for r, j, v in m.entries()}
    assert m.flatten() == flat
    assert all(type(x) is int for pair in m.flatten().values() for x in pair)


def test_compose_dimension_check():
    with pytest.raises(ValueError):
        LinearMap.zero(2, 3).compose(LinearMap.zero(3, 3))


def test_entry_validation():
    with pytest.raises(ValueError):
        LinearMap(1, 1, {0: {5: r2(1)}})
    with pytest.raises(ValueError):
        LinearMap(1, 1, {3: {0: r2(1)}})
    for make in (lambda: LinearMap(-1, 1), lambda: LinearMap.zero(2, -1),
                 lambda: LinearMap.identity(-1)):
        with pytest.raises(ValueError, match="dimensions must be nonnegative"):
            make()


def test_zero_entries_dropped():
    m = LinearMap(2, 2, {0: {0: r2(0)}, 1: {1: r2(2)}})
    assert m.nnz() == 1


def test_compose_commutes_with_scaling_by_a_fractional_unit():
    rng = random.Random(7)
    for trial in range(20):
        a_int = random_map(rng, 6, 5)
        b_int = random_map(rng, 5, 6)
        fast = a_int.compose(b_int)
        # Scale by 1/2 (den 2) before composing and by 2 after.
        half = RootTwoNumber(Fraction(1, 2))
        two = RootTwoNumber(2)
        generic = a_int.scale(half).compose(b_int).scale(two)
        assert fast == generic


def test_rank_of_composition_bounded():
    rng = random.Random(11)
    for trial in range(15):
        a = random_map(rng, 5, 4, fractional=trial % 2 == 0)
        b = random_map(rng, 4, 5, fractional=trial % 3 == 0)
        assert a.compose(b).rank() <= min(a.rank(), b.rank())


def test_entries_sorted_by_column_then_row():
    m = LinearMap(2, 3, {1: {2: r2(1), 0: r2(1)}, 0: {1: r2(1)}})
    coords = [(c, r) for r, c, _ in m.entries()]
    assert coords == sorted(coords)


def test_json_shape():
    m = LinearMap(1, 2, {0: {1: RootTwoNumber(Fraction(1, 2), 1)}})
    assert m.to_json() == {
        "rows": 2,
        "cols": 1,
        "entries": [[1, 0, {"a": "1/2", "b": "1"}]],
    }


# --- properties of the pair kernel against a dense RootTwoNumber reference ---

ZERO = RootTwoNumber(0)
entries_q2 = st.builds(
    lambda a, b, den: RootTwoNumber(Fraction(a, den), Fraction(b, den)),
    st.integers(-4, 4), st.integers(-3, 3), st.sampled_from((1, 2, 3)),
)


def dense_maps(rows, cols):
    """A map as a dense rows x cols grid of Q(sqrt2) entries, mostly zero."""
    cell = st.one_of(st.just(ZERO), entries_q2)
    return st.lists(st.lists(cell, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def to_map(grid, cols):
    return LinearMap(cols, len(grid), {
        j: {i: row[j] for i, row in enumerate(grid) if row[j]} for j in range(cols)
    })


def dense_product(left, right):
    inner = len(right)
    return [[sum((lrow[k] * right[k][j] for k in range(inner)), ZERO)
              for j in range(len(right[0]))] for lrow in left]


shapes = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


@given(st.data(), shapes)
def test_compose_matches_dense_reference(data, shape):
    rows, inner, cols = shape
    left = data.draw(dense_maps(rows, inner))
    right = data.draw(dense_maps(inner, cols))
    got = to_map(left, inner) @ to_map(right, cols)
    assert got == to_map(dense_product(left, right), cols)


@given(st.data(), st.integers(1, 4), st.integers(1, 4), entries_q2)
def test_sum_difference_scale_match_dense_reference(data, rows, cols, c):
    x = data.draw(dense_maps(rows, cols))
    y = data.draw(dense_maps(rows, cols))
    mx, my = to_map(x, cols), to_map(y, cols)
    def cellwise(op):
        return [[op(u, v) for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]
    assert mx + my == to_map(cellwise(lambda u, v: u + v), cols)
    assert mx - my == to_map(cellwise(lambda u, v: u - v), cols)
    assert mx.scale(c) == to_map([[u * c for u in row] for row in x], cols)
    combined = LinearMap.combination(cols, rows, [(3, mx), (-2, my), (0, mx)])
    assert combined == to_map(cellwise(lambda u, v: u * 3 - v * 2), cols)


@given(st.data(), st.integers(1, 4), st.integers(1, 4))
def test_equal_maps_compare_equal_whatever_the_route(data, rows, cols):
    m = to_map(data.draw(dense_maps(rows, cols)), cols)
    half, third = RootTwoNumber(Fraction(1, 2)), RootTwoNumber(Fraction(1, 3))
    assert m.scale(half) + m.scale(half) == m
    assert (m.scale(half) == m) == (m.nnz() == 0)
    assert m.scale(third).scale(RootTwoNumber(3)) == m
    assert m - m == LinearMap.zero(cols, rows)
    assert (m - m).scale(third) == LinearMap.zero(cols, rows)
    assert m.scale(RootTwoNumber(0, 1)).scale(RootTwoNumber(0, half.a)) == m


@given(st.data(), st.integers(1, 4), st.integers(1, 4))
def test_boundary_views_round_trip(data, rows, cols):
    grid = data.draw(dense_maps(rows, cols))
    m = to_map(grid, cols)
    assert LinearMap(cols, rows, {j: m.column(j) for j in range(cols)}) == m
    by_col: dict = {}
    for r, j, v in m.entries():
        assert v == grid[r][j] and v
        by_col.setdefault(j, {})[r] = v
    assert LinearMap(cols, rows, by_col) == m
    data_json = m.to_json()
    from_json = {}
    for r, j, v in data_json["entries"]:
        from_json.setdefault(j, {})[r] = RootTwoNumber.from_json(v)
    assert LinearMap(data_json["cols"], data_json["rows"], from_json) == m
    assert m.nnz() == sum(1 for row in grid for v in row if v)


@given(st.data(), st.integers(1, 4), st.integers(1, 4))
def test_first_difference_is_first_in_entries_order(data, rows, cols):
    x = data.draw(dense_maps(rows, cols))
    y = data.draw(dense_maps(rows, cols))
    mx, my = to_map(x, cols), to_map(y, cols)
    differing = sorted((j, r) for r in range(rows) for j in range(cols)
                       if x[r][j] != y[r][j])
    got = mx.first_difference(my)
    if not differing:
        assert got is None and mx == my
    else:
        j, r = differing[0]
        assert got == (r, j, x[r][j], y[r][j])


# --- exact rank modulo primes against Gaussian elimination over Q(sqrt2) -----

def exact_rank(vectors):
    """Rank by Gaussian elimination over Q(sqrt2) in RootTwoNumber: the oracle."""
    pivots = {}
    for vec in vectors:
        v = {i: c for i, c in vec.items() if c}
        while v:
            lead = min(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = inverse(v[lead])
                pivots[lead] = {i: c * inv for i, c in v.items()}
                break
            factor = v[lead]
            for i, c in piv.items():
                s = v.get(i, ZERO) - c * factor
                if s:
                    v[i] = s
                else:
                    v.pop(i, None)
    return len(pivots)


@st.composite
def spanned_vectors(draw):
    """Up to six vectors of length 1..5 spanned by fewer generators, so
    the rank is often deficient; zero vectors and zero entries included."""
    length = draw(st.integers(1, 5))
    cell = st.one_of(st.just(ZERO), entries_q2)
    gens = draw(st.lists(st.lists(cell, min_size=length, max_size=length),
                         min_size=1, max_size=3))
    coeffs = st.lists(entries_q2, min_size=len(gens), max_size=len(gens))
    return [
        {i: sum((c * g[i] for c, g in zip(cs, gens)), ZERO) for i in range(length)}
        for cs in draw(st.lists(coeffs, min_size=1, max_size=6))
    ]


@given(spanned_vectors(), st.integers(0, 3))
def test_rank_matches_elimination_over_q_sqrt2(vectors, slack):
    rank = exact_rank(vectors)
    pairs = [as_pairs(v) for v in vectors]
    assert rank_of_vectors(pairs) == rank
    # A true ceiling, reached or not, never changes the answer.
    assert rank_of_vectors(pairs, ceiling=rank + slack) == rank
    length = len(vectors[0])
    as_map = LinearMap(len(vectors), length, dict(enumerate(vectors)))
    assert as_map.rank() == rank


P0 = (1 << 61) - 1  # the first prime tried
SQRT2_MOD_P0 = pow(2, (P0 + 1) // 4, P0)


def test_primes_are_7_mod_8_downward_from_2_61_minus_1(monkeypatch):
    primes = list(islice(linalg._primes(), 10))
    assert primes[0] == P0 and primes == sorted(primes, reverse=True)
    for p in primes:
        assert p % 8 == 7 and pow(pow(2, (p + 1) // 4, p), 2, p) == 2
    # The same sequence as a search that tests 2^61 - 1 too.
    assert primes == list(islice(filter(linalg._is_prime, count(P0, -8)), 10))

    def untested(n):
        raise AssertionError(f"{n} was tested")
    # 2^61 - 1 is a known prime: it is yielded without a test.
    monkeypatch.setattr(linalg, "_is_prime", untested)
    assert next(linalg._primes()) == P0


def test_miller_rabin_against_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if linalg._is_prime(n)] == [
        n for n in range(3000) if trial(n)]
    # A strong pseudoprime to every prime base up to 23, caught by 29..37.
    assert not linalg._is_prime(3825123056546413051)
    assert linalg._is_prime(P0) and not linalg._is_prime(P0 + 8)


def test_rank_when_the_first_prime_kills_an_entry():
    # s - sqrt2 is nonzero, but s is a square root of 2 mod the first prime.
    vectors = [{0: RootTwoNumber(SQRT2_MOD_P0, -1)}]
    assert linalg._rank_mod([{0: (SQRT2_MOD_P0, -1)}], P0) == 0
    assert rank_of_vectors([{0: (SQRT2_MOD_P0, -1)}]) == 1
    assert LinearMap(1, 1, dict(enumerate(vectors))).rank() == 1


def test_rank_when_the_first_prime_divides_a_minor():
    # diag(1, P0) has rank 1 mod P0; dividing out row contents already helps.
    diag = [{0: r2(1)}, {1: r2(P0)}]
    assert rank_of_vectors(map(as_pairs, diag)) == 2
    assert LinearMap(2, 2, dict(enumerate(diag))).rank() == 2
    # The same determinant P0 with primitive rows, which stay rank 1 mod P0.
    rows = [{0: r2(1), 1: r2(1)}, {0: r2(1), 1: r2(1 + P0)}]
    assert linalg._rank_mod([{0: (1, 0), 1: (1, 0)}, {0: (1, 0), 1: (1 + P0, 0)}], P0) == 1
    assert rank_of_vectors(map(as_pairs, rows)) == 2
    assert LinearMap(2, 2, dict(enumerate(rows))).rank() == 2


def test_deficient_rank_of_multiples():
    # Rank 1: the bound must stop the search, not a full rank.
    v = {0: r2(3, 1), 2: RootTwoNumber(Fraction(1, 2), Fraction(-1, 3))}
    vectors = [v, {i: c * RootTwoNumber(5, -2) for i, c in v.items()}, {}]
    assert rank_of_vectors(map(as_pairs, vectors)) == 1
    assert rank_of_vectors([]) == 0


def counted_rank_mod(monkeypatch):
    """Count the eliminations modulo a prime that linalg runs."""
    calls = []
    rank_mod = linalg._rank_mod

    def counted(vectors, p):
        calls.append(p)
        return rank_mod(vectors, p)

    monkeypatch.setattr(linalg, "_rank_mod", counted)
    return calls


def test_ceiling_reached_stops_after_one_prime(monkeypatch):
    # Rank 1 with entries near 2^40: the Hadamard bound for rank 2 is ~2^162.
    v = {0: r2(2 ** 40 + 1, 3), 2: r2(2 ** 40 + 3, -1)}
    vectors = [as_pairs(v), as_pairs({i: c * r2(5, -2) for i, c in v.items()})]
    calls = counted_rank_mod(monkeypatch)
    assert rank_of_vectors(vectors) == 1
    assert len(calls) > 1  # the Hadamard bound needs more than one prime
    calls.clear()
    assert rank_of_vectors(vectors, ceiling=1) == 1
    assert len(calls) == 1


@pytest.mark.parametrize("n, N", [(3, 2), (3, 3)])
@pytest.mark.parametrize("offset", [1, -1])
def test_ceiling_not_the_rank_changes_nothing(monkeypatch, n, N, offset):
    # Above the rank it is never reached; below it, the first prime's rank
    # already exceeds it. Either way the Hadamard bound stops the search.
    space = SpaceSpec(N, n)
    vectors = [realize_diagram(d, space).flatten() for d in enumerate_basis(n)]
    calls = counted_rank_mod(monkeypatch)
    rank = rank_of_vectors(vectors)
    plain = list(calls)
    calls.clear()
    assert rank_of_vectors(vectors, ceiling=rank + offset) == rank
    assert calls == plain and len(plain) > 1


def test_ceiling_is_keyword_only():
    with pytest.raises(TypeError):
        rank_of_vectors([{0: (1, 0)}], 1)
