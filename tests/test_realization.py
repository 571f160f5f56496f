import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from spinbrauer import verify
from spinbrauer.diagrams import SpinDiagram, enumerate_basis, identity_diagram
from spinbrauer.linalg import LinearMap
from spinbrauer.multiply import multiply_diagrams
from spinbrauer.realization import (
    BLOCKS,
    ColumnSet,
    SpaceSpec,
    _absorb,
    _dual,
    _times,
    _v_action,
    act_gamma,
    act_so,
    commutant_dimension,
    contraction_map,
    immersion_map,
    injection_map,
    omega_pairing,
    projection_map,
    realize_diagram,
    so_basis,
    swap_map,
)
from spinbrauer.scalars import RootTwoNumber

ONE = RootTwoNumber(1)
SQRT2 = RootTwoNumber(0, 1)


def test_wedge_inserts_at_front():
    space = SpaceSpec(4)  # m = 2; contents: w1 w2 w1* w2*
    assert _absorb(0, 0b10, space) == (0, 1, 0b11)


def test_contraction_removes_first_mode():
    space = SpaceSpec(4)
    assert _absorb(2, 0b11, space) == (0, 1, 0b10)


def test_wedge_annihilates_occupied_mode():
    space = SpaceSpec(4)
    assert _absorb(1, 0b10, space) is None


def test_absorb_signs_count_the_modes_below():
    space = SpaceSpec(5)  # m = 2; contents: w1 w2 w1* w2* e
    assert _absorb(1, 0b01, space) == (0, -1, 0b11)  # w2 passes w1
    assert _absorb(3, 0b11, space) == (0, -1, 0b01)
    assert _absorb(2, 0b10, space) is None           # w1* on an empty mode
    assert _absorb(4, 0b01, space) == (-1, 0, 0b01)  # e acts by the parity
    assert _absorb(4, 0b11, space) == (1, 0, 0b11)


@pytest.mark.parametrize("N", range(2, 8))
def test_gamma_satisfies_the_clifford_relation(N):
    # gamma(u) gamma(v) + gamma(v) gamma(u) = 2 omega(u, v) on every mask,
    # with gamma's sqrt2 scaling and e's parity, in integer pairs.
    space = SpaceSpec(N)
    for u in range(N):
        for v in range(N):
            expected = 2 * omega_pairing(u, v, space)
            for mask in range(space.fock_dim):
                total: dict[int, tuple[int, int]] = {}
                for x, y in ((u, v), (v, u)):
                    first = _absorb(y, mask, space)
                    second = first and _absorb(x, first[2], space)
                    if second:
                        a, b = _times(first[0], first[1], second[0], second[1])
                        pa, pb = total.get(second[2], (0, 0))
                        total[second[2]] = (pa + a, pb + b)
                total = {mk: ab for mk, ab in total.items() if ab != (0, 0)}
                assert total == ({mask: (expected, 0)} if expected else {}), (u, v, mask)


def test_omega_pairs_dual_modes():
    space = SpaceSpec(5)  # m = 2; contents: w1 w2 w1* w2* e
    assert omega_pairing(0, 2, space) == 1
    assert omega_pairing(2, 0, space) == 1
    assert omega_pairing(0, 0, space) == 0
    assert omega_pairing(4, 4, space) == 1
    assert omega_pairing(4, 0, space) == 0


def vec(space, slots, mask):
    return {space.encode(slots, mask): ONE}


def test_mixed_symbol_action_on_v():
    # h applied to its dual partner returns the raising vector.
    space = SpaceSpec(5, 1)
    act = act_so((0, 2), space)  # w1 ^ w1*
    out = act.column(space.encode((0,), 0))
    # slot part w1 -> w1 plus the spin part (-1/2 on the empty wedge).
    assert out[space.encode((0,), 0)] == RootTwoNumber(1) + RootTwoNumber(Fraction(-1, 2))


def test_lowering_e_symbol_sends_e_to_dual():
    space = SpaceSpec(5, 1)
    act = act_so((4, 2), space)  # e ^ w1*
    out = act.column(space.encode((4,), 0))  # e in the only slot
    assert out[space.encode((2,), 0)] == RootTwoNumber(-1)  # -w1*


def test_lowering_pair_on_full_wedge():
    space = SpaceSpec(5, 0)
    act = act_so((2, 3), space)  # w1* ^ w2*
    out = act.column(0b11)
    assert out == {0b00: RootTwoNumber(-1)}


@pytest.mark.parametrize("N", range(2, 9))
def test_so_basis_lists_each_pair_of_distinct_contents_once(N):
    pairs = so_basis(SpaceSpec(N))
    assert len(pairs) == N * (N - 1) // 2  # dim so(N)
    assert {frozenset(p) for p in pairs} == {
        frozenset(p) for p in itertools.combinations(range(N), 2)}


# An so(N) symbol is a pair of distinct contents in 0..N-1, here N = 5.
@pytest.mark.parametrize("sym", [(1, 1), (0, 5), (-1, 2), (0, 1, 2), (5, 0), (0,)])
def test_act_so_rejects_a_symbol_outside_the_basis_range(sym):
    for n in (0, 1):
        with pytest.raises(ValueError):
            act_so(sym, SpaceSpec(5, n))


def test_so_action_respects_omega():
    # skew: omega(g u, v) + omega(u, g v) = 0 for every so(N) basis pair.
    for N in (4, 5):
        space = SpaceSpec(N, 0)
        dim = N
        for pair in so_basis(space):
            for u in range(dim):
                for v in range(dim):
                    total = 0
                    for coeff, nu in _v_action(pair, u, space):
                        total += coeff * omega_pairing(nu, v, space)
                    for coeff, nv in _v_action(pair, v, space):
                        total += coeff * omega_pairing(u, nv, space)
                    assert total == 0


def test_gamma_on_spin_factor_alone():
    space = SpaceSpec(3, 0)  # m = 1
    g = act_gamma(space)
    half = RootTwoNumber(0, Fraction(1, 2))
    assert g.column(0) == {1: half}          # empty wedge -> (1/sqrt2) w1
    assert g.column(1) == {0: -half}         # w1 -> -(1/sqrt2) empty wedge


def test_gamma_equivariance_witness():
    for N in (3, 4):
        dom = SpaceSpec(N, 1)
        cod = SpaceSpec(N, 0)
        pi = projection_map(dom, 1)
        assert pi @ act_gamma(dom) == act_gamma(cod) @ pi


def test_projection_on_wedge_example():
    space = SpaceSpec(5, 1)  # m = 2
    pi = projection_map(space, 1)
    out = pi.column(space.encode((0,), 0b10))  # w1 (x) wedge {2}
    assert out == {0b11: SQRT2}


def test_contraction_example():
    space = SpaceSpec(5, 2)
    kappa = contraction_map(space, 1, 2)
    out = kappa.column(space.encode((0, 2), 0b01))  # w1 (x) w1* (x) {1}
    assert out == {0b01: ONE}


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_projection_of_injection_scales_by_dimension(N):
    s0, s1 = SpaceSpec(N, 0), SpaceSpec(N, 1)
    comp = projection_map(s1, 1) @ injection_map(s0, 1)
    assert comp == LinearMap.identity(s0.total_dim).scale(RootTwoNumber(N))


def test_invariant_vector_annihilated():
    # so(N) kills the immersed element of V (x) V, so the immersion commutes
    # with the action: the spin parts on both sides cancel.
    for N in (3, 4):
        vacuum, pair = SpaceSpec(N, 0), SpaceSpec(N, 2)
        iota = immersion_map(vacuum, 1, 2)
        for bivector in so_basis(vacuum):
            assert act_so(bivector, pair) @ iota == iota @ act_so(bivector, vacuum)


def test_contracting_an_injected_slot_is_a_projection():
    # Routing a vector into a fresh injected slot and pairing the two is the
    # same as projecting the vector directly.
    for N in (3, 4):
        dom = SpaceSpec(N, 1)
        mid = SpaceSpec(N, 2)
        composite = contraction_map(mid, 1, 2) @ injection_map(dom, 2)
        assert composite == projection_map(dom, 1)


def test_snake_identity():
    # Immersing the invariant element and contracting one leg against a
    # routed vector forwards the vector unchanged.
    for N in (3, 4):
        dom = SpaceSpec(N, 1)
        big = SpaceSpec(N, 3)
        composite = contraction_map(big, 1, 2) @ immersion_map(dom, 2, 3)
        assert composite == LinearMap.identity(dom.total_dim)


def test_swap_map_permutes_slots():
    space = SpaceSpec(3, 2)
    tau = swap_map(space, (2, 1))
    out = tau.column(space.encode((0, 2), 0))
    assert out == vec(space, (2, 0), 0)


# Each block's builder and valid positions for it on SpaceSpec(3, 2).
_BLOCK_CASES = {"projection": (projection_map, (2,)), "injection": (injection_map, (1,)),
                "immersion": (immersion_map, (1, 3)), "contraction": (contraction_map, (1, 2)),
                "swap": (swap_map, ((2, 1),))}


@pytest.mark.parametrize("kind", list(BLOCKS))
def test_block_table_gives_each_builder_and_its_codomain(kind):
    build, gained = BLOCKS[kind]
    builder, positions = _BLOCK_CASES[kind]
    assert build is builder
    space = SpaceSpec(3, 2)
    built = build(space, *positions)
    assert built.domain_dim == space.total_dim
    assert built.codomain_dim == space.with_n(space.n + gained).total_dim


@pytest.mark.parametrize("N", range(2, 6))
def test_basis_runs_in_index_order(N):
    # The block maps take each column's index from its position in basis().
    for n in range(3):
        space = SpaceSpec(N, n)
        assert [space.encode(s, m) for s, m in space.basis()] == list(range(space.total_dim))


def test_realize_identity_diagram():
    for N, n in ((3, 1), (4, 2)):
        space = SpaceSpec(N, n)
        assert realize_diagram(identity_diagram(n), space) == LinearMap.identity(
            space.total_dim
        )


def test_realize_both_isolated_column():
    space = SpaceSpec(3, 1)
    d = SpinDiagram(1, (1,), (1,), (), (), ())
    col = realize_diagram(d, space).column(space.encode((0,), 0))
    assert col == {
        space.encode((0,), 0): RootTwoNumber(2),
        space.encode((2,), 1): RootTwoNumber(0, -1),
    }


def test_realize_rejects_wrong_arity():
    with pytest.raises(Exception):
        realize_diagram(identity_diagram(2), SpaceSpec(3, 1))


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
def test_every_map_kind_equivariant(N):
    from spinbrauer.verify import verify_equivariance

    for kind in ("projection", "injection", "immersion", "contraction",
                 "swap", "invariant"):
        assert verify_equivariance(N, kind).passed


def test_realize_matches_composite_on_product():
    # One fixed pair checked against matrix composition at two dimensions.
    top = SpinDiagram(2, (1,), (2,), (), (), ((2, 1),))
    bottom = SpinDiagram(2, (1, 2), (), (), ((1, 2),), ())
    for N in (3, 4):
        space = SpaceSpec(N, 2)
        product = multiply_diagrams(top, bottom).evaluate_at(N)
        lhs = LinearMap.zero(space.total_dim, space.total_dim)
        for d, c in product.terms.items():
            lhs = lhs + realize_diagram(d, space).scale(RootTwoNumber(c.eval_at(N)))
        rhs = realize_diagram(bottom, space) @ realize_diagram(top, space)
        assert lhs == rhs


class _SlotComposer:
    """Builds a composite of equivariant blocks over named slots.

    Slots are identified by integer names whose sorted order is the final
    left-to-right layout; positions are recomputed at every step, so a
    composite reads like the diagram picture regardless of arity changes.
    """

    def __init__(self, N, names):
        self.N = N
        self.slots = list(names)
        self.matrix = LinearMap.identity(SpaceSpec(N, len(self.slots)).total_dim)

    def step(self, kind, names):
        """Apply a block of BLOCKS (not the swap) to the named slots.

        A block that adds slots finds their positions in the new sorted
        layout; one that removes slots finds them in the old layout.
        """
        build, gained = BLOCKS[kind]
        if gained > 0:
            new = layout = sorted(self.slots + list(names))
        else:
            layout, new = self.slots, [s for s in self.slots if s not in names]
        positions = sorted(layout.index(s) + 1 for s in names)
        self.matrix = build(SpaceSpec(self.N, len(self.slots)), *positions) @ self.matrix
        self.slots = new

    def rename(self, new_names):
        """Route each slot to its new name through one swap_map."""
        new = sorted(new_names[s] for s in self.slots)
        images = [new.index(new_names[s]) + 1 for s in self.slots]
        self.matrix = swap_map(SpaceSpec(self.N, len(self.slots)), images) @ self.matrix
        self.slots = new


def block_composite(d, N):
    """The product of the block maps a diagram stands for, in the documented order."""
    comp = _SlotComposer(N, range(1, d.n + 1))
    for a, b in d.top_arcs:
        comp.step("contraction", (a, b))
    for v in d.top_isolated:
        comp.step("projection", (v,))
    comp.rename(dict(d.through))
    for v in d.bottom_isolated:
        comp.step("injection", (v,))
    for a, b in d.bottom_arcs:
        comp.step("immersion", (a, b))
    assert comp.slots == list(range(1, d.n + 1))
    return comp.matrix


# The checks on few columns trust that every realization is equivariant;
# this whole-map oracle is what sees a realization that is not.
@pytest.mark.parametrize("N,max_n", [(3, 3), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2),
                                     (4, 3), (5, 3)])
def test_realize_equals_block_composite(N, max_n):
    for n in range(max_n + 1):
        space = SpaceSpec(N, n)
        for d in enumerate_basis(n):
            assert realize_diagram(d, space) == block_composite(d, N), d


def _restricted(m, columns):
    """m with every column outside columns set to zero."""
    return LinearMap(m.domain_dim, m.codomain_dim, {j: m.column(j) for j in columns})


@pytest.mark.parametrize("N, ns", [(N, range(3)) for N in range(2, 9)]
                         + [(3, [3]), (6, [3])],
                         ids=[f"N{N}-n<=2" for N in range(2, 9)] + ["N3-n3", "N6-n3"])
def test_realize_on_columns_equals_the_restricted_realization(N, ns):
    # Column sets at Fock mask 0 given slot by slot: the columns whose slot p
    # holds a content of contents[p].
    rng = random.Random(N)
    for n in ns:
        space = SpaceSpec(N, n)
        dim = space.total_dim

        def columns(contents):
            return [space.encode(slots, 0) for slots in itertools.product(*contents)]
        for d in enumerate_basis(n):
            full = realize_diagram(d, space)
            every = [range(N)] * n
            for p in range(n):
                empty = ColumnSet(space, columns(every[:p] + [[]] + every[p + 1:]))
                assert realize_diagram(d, space, empty) == LinearMap.zero(dim, dim)
            vacuum = ColumnSet(space, columns(every))
            assert realize_diagram(d, space, vacuum) == _restricted(full, columns(every))
            for _ in range(3):
                contents = [rng.sample(range(N), rng.randint(1, N)) for _ in range(n)]
                part = realize_diagram(d, space, ColumnSet(space, columns(contents)))
                assert part == _restricted(full, columns(contents)), (d, contents)


@pytest.mark.parametrize("N, ns", [(N, range(3)) for N in range(2, 9)]
                         + [(N, [3]) for N in range(2, 8)],
                         ids=[f"N{N}-n<=2" for N in range(2, 9)]
                         + [f"N{N}-n3" for N in range(2, 8)])
def test_realize_on_a_column_set_equals_the_whole_realization_there(N, ns):
    # A column set may hold any columns at any Fock masks, a product of slot
    # contents or not (the orbit columns, the kept weight's, random ones):
    # each is evaluated on its own, equal to the whole realization's column.
    rng = random.Random(N)
    for n in ns:
        space = SpaceSpec(N, n)
        dim, fock = space.total_dim, space.fock_dim
        orbits = [verify._mode_orbit_columns(space), verify._weight_orbit_columns(space)]
        for d in enumerate_basis(n):
            full = realize_diagram(d, space)
            assert realize_diagram(d, space, ColumnSet(space, range(dim))) == full
            assert realize_diagram(d, space, ColumnSet(space, [])) == LinearMap.zero(dim, dim)
            sets = [rng.sample(range(dim), rng.randint(1, min(dim, 24))) for _ in range(3)]
            sets.append(range(fock - 1, dim, fock))  # the last mask only
            sets.append(rng.sample(sorted(full.rows()), min(len(full.rows()), 24)))
            assert any(j % fock for columns in sets for j in columns)
            sets += orbits
            for columns in sets:
                part = realize_diagram(d, space, ColumnSet(space, columns))
                assert part == _restricted(full, columns), (d, columns)


class _CountedRow(list):
    """A row of the gamma table that counts its reads."""
    reads = 0

    def __getitem__(self, mask):
        _CountedRow.reads += 1
        return super().__getitem__(mask)


def test_a_one_column_set_evaluates_one_column(monkeypatch):
    # Every top vertex isolated: a column's evaluation reads gamma once per
    # vertex it absorbs, and w_1, w_2, w_3 all wedge into the vacuum.
    space = SpaceSpec(6, 3)
    d = SpinDiagram(3, (1, 2, 3), (1, 2, 3), (), (), ())
    full = realize_diagram(d, space)  # builds emits from gamma before gamma is counted
    monkeypatch.setitem(space.__dict__, "gamma", [_CountedRow(row) for row in space.gamma])
    monkeypatch.setattr(_CountedRow, "reads", 0)
    column = space.encode((0, 1, 2), 0)
    part = realize_diagram(d, space, ColumnSet(space, [column]))
    assert _CountedRow.reads == 3
    assert part == _restricted(full, [column]) and part.nnz() > 0
    realize_diagram(d, space)
    assert _CountedRow.reads > 3 * space.fock_dim


@pytest.mark.parametrize("columns", [[-1], [0, 64], [10**6], [3, 2, 64]])
def test_realize_rejects_a_column_set_outside_the_space(columns):
    with pytest.raises(ValueError, match=r"columns must lie in 0\.\.63"):
        ColumnSet(SpaceSpec(4, 2), columns)


def test_realize_refuses_a_column_set_of_another_space():
    columns = ColumnSet(SpaceSpec(4, 2), [0])
    d = enumerate_basis(2)[0]
    assert realize_diagram(d, SpaceSpec(4, 2), columns).nnz() > 0
    for space in (SpaceSpec(5, 2), SpaceSpec(4, 2).with_n(1)):
        with pytest.raises(ValueError, match="columns of .* given for"):
            realize_diagram(enumerate_basis(space.n)[0], space, columns)


_EMBEDDINGS = [(N, N2) for N in range(2, 8) for N2 in range(N + 1, 9)
               if not (N % 2 and N2 % 2 == 0)]


@pytest.mark.parametrize("N, N2", _EMBEDDINGS)
def test_realizations_embed_into_more_modes(N, N2):
    # The mode-embedding lemma: w_i -> w_i, w_i* -> w_i*, e -> e, the Fock
    # mask kept, takes the space at N into the one at N2 (odd N has no image
    # of e at even N2). On the image columns and rows a diagram's
    # realization at N2 is its realization at N, entry for entry.
    for n in range(4):
        small, big = SpaceSpec(N, n), SpaceSpec(N2, n)
        m, m2 = small.m, big.m
        content = [c if c < m else c - m + m2 if c < 2 * m else 2 * m2 for c in range(N)]
        image = [big.encode([content[c] for c in slots], mask)
                 for slots, mask in small.basis()]
        index = {j2: j for j, j2 in enumerate(image)}
        columns = ColumnSet(big, image)
        for d in enumerate_basis(n):
            embedded = {(index[r], index[c]): v
                        for r, c, v in realize_diagram(d, big, columns).entries() if r in index}
            assert embedded == {(r, c): v for r, c, v in realize_diagram(d, small).entries()}, d


def _digest(maps):
    h = hashlib.sha256()
    for m in maps:
        h.update(json.dumps(m.to_json()).encode())
    return h.hexdigest()


def test_realizations_match_golden_digest():
    # Recorded from the Fraction-based realization; pins every entry and its
    # JSON form for all basis diagrams with n <= 3 at N = 2..6.
    maps = (realize_diagram(d, SpaceSpec(N, n))
            for N in range(2, 7) for n in range(4) for d in enumerate_basis(n))
    assert _digest(maps) == (
        "7f3dddeda54fcd13fcf4be294673092870288258ed574c27f38b458038f9b2e3")


def test_actions_match_golden_digest():
    # The so(N) basis action, then the odd reflection, for n <= 2 at N = 2..7.
    def maps():
        for N in range(2, 8):
            for n in range(3):
                space = SpaceSpec(N, n)
                yield from (act_so(pair, space) for pair in so_basis(space))
                yield act_gamma(space)
    assert _digest(maps()) == (
        "898b0aa21f4c5ce7b0f8758b18c1f50665e27f48e70f345843704758a3e30ca4")


# --- the commutant dimension ---------------------------------------------------

# Below N = 2n: the ranks pinned by tests/test_verify.py and measured by
# elimination at (2, 2), (3, 2), (2, 3) and (4, 3).
@pytest.mark.parametrize("n, N, dim", [
    (2, 2, 6), (3, 2, 20), (2, 3, 9), (3, 3, 51), (4, 3, 323),
    (2, 4, 10), (3, 4, 70), (3, 5, 75),
])
def test_commutant_dimension_below_stability(n, N, dim):
    assert commutant_dimension(SpaceSpec(N, n)) == dim


@pytest.mark.parametrize("n, N", [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5),
                                  (3, 6), (3, 7), (4, 8), (4, 9)])
def test_commutant_dimension_is_the_basis_size_from_2n(n, N):
    assert commutant_dimension(SpaceSpec(N, n)) == len(enumerate_basis(n))


def test_commutant_dimension_of_the_spin_factor_alone():
    # Delta is irreducible under Pin(N) at every N; no Weyl group is enumerated.
    assert [commutant_dimension(SpaceSpec(N)) for N in (2, 3, 4, 5, 40, 41)] == [1] * 6


@pytest.mark.parametrize("N, n", [(1, 0), (0, 2), (3, -1)])
def test_commutant_dimension_takes_a_validated_space(N, n):
    with pytest.raises(ValueError):
        commutant_dimension(SpaceSpec(N, n))


@pytest.mark.parametrize("N, n, field", [(5, 1.0, "n"), (5.0, 1, "N"), (True, 1, "N"),
                                         (5, "1", "n")])
def test_space_refuses_a_size_that_is_not_an_integer(N, n, field):
    with pytest.raises(TypeError, match=f"^{field} = .* is not an integer"):
        SpaceSpec(N, n)


def _emit(mask, space):
    """The injection's terms from one mask, from the Clifford action alone:
    each content c that gamma absorbs emits its dual with gamma's factor,
    as (content, a, b, new mask)."""
    out = []
    for c in range(space.N):
        res = _absorb(c, mask, space)
        if res is not None:
            out.append((_dual(c, space), *res))
    return out


@pytest.mark.parametrize("N", range(2, 8))
def test_space_tables_are_the_clifford_action(N):
    space = SpaceSpec(N, 1)
    masks = range(space.fock_dim)
    assert space.gamma == [[_absorb(c, mask, space) for mask in masks] for c in range(N)]
    assert space.emits == [_emit(mask, space) for mask in masks]
    # Built once per space, and not shared with an equal space made apart.
    assert space.gamma is space.gamma and space.emits is space.emits
    assert SpaceSpec(N, 1).gamma is not space.gamma


def _checked(m: LinearMap) -> LinearMap:
    """m adopted again, from its entries, through the checked public constructor."""
    return LinearMap(m.domain_dim, m.codomain_dim, {j: m.column(j) for j in m._cols})


@pytest.mark.parametrize("N", range(2, 6))
def test_maps_built_unchecked_are_canonical(N):
    """The builders that skip the check hand over canonical columns: no
    stored zero, no empty column, indices in range and den reduced."""
    half = RootTwoNumber(Fraction(1, 2), 1)
    for n in range(3):
        space = SpaceSpec(N, n)
        vacuum = ColumnSet(space, range(0, space.total_dim, space.fock_dim))
        maps = []
        for d in enumerate_basis(n):
            maps += [realize_diagram(d, space), realize_diagram(d, space, vacuum)]
        # act_so brings den 2, so that composites and multiples reduce den.
        maps += [act_so(pair, space) for pair in so_basis(space)[:3]]
        built = []
        for a, b in zip(maps, maps[1:] + maps[:1]):
            built += [a @ b, b @ a @ a, a.scale(half), a.scale(RootTwoNumber(2)),
                      LinearMap.combination(a.domain_dim, a.codomain_dim,
                                            [(2, a), (-3, b), (1, a @ b)])]
            cancelled = LinearMap.combination(a.domain_dim, a.codomain_dim,
                                              [(1, a), (-1, a)])
            assert cancelled == LinearMap.zero(a.domain_dim, a.codomain_dim)
            built.append(cancelled)
            assert LinearMap.combination(a.domain_dim, a.codomain_dim, [(1, a)]) is a
        for m in maps + built:
            assert m == _checked(m)
