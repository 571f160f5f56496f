import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spinbrauer.diagrams import enumerate_basis
from spinbrauer.linalg import LinearMap, rank_of_vectors
from spinbrauer.realization import SpaceSpec, realize_diagram
from spinbrauer.scalars import RootTwoNumber


def r2(a, b=0):
    return RootTwoNumber(a, b)


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


def test_compose_dimension_check():
    with pytest.raises(ValueError):
        LinearMap.zero(2, 3).compose(LinearMap.zero(3, 3))


def test_entry_validation():
    with pytest.raises(ValueError):
        LinearMap(1, 1, {0: {5: r2(1)}})
    with pytest.raises(ValueError):
        LinearMap(1, 1, {3: {0: r2(1)}})


def test_zero_entries_dropped():
    m = LinearMap(2, 2, {0: {0: r2(0)}, 1: {1: r2(2)}})
    assert m.nnz() == 1


def test_compose_fast_and_generic_paths_agree():
    rng = random.Random(7)
    for trial in range(20):
        a_int = random_map(rng, 6, 5)
        b_int = random_map(rng, 5, 6)
        fast = a_int.compose(b_int)
        # Force the generic path by scaling with a fractional unit and back.
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


def test_apply_matches_compose():
    rng = random.Random(3)
    a = random_map(rng, 5, 4)
    vec = {0: r2(2), 3: r2(0, 1)}
    by_apply = a.apply(vec)
    as_map = LinearMap(1, 4, {0: vec})
    assert a.compose(as_map).column(0) == by_apply


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
