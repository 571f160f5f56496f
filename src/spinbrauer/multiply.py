"""Combinatorial multiplication of spin-Brauer diagrams.

Stacking two diagrams identifies the bottom row of the first with the top row
of the second. Components of the resulting middle graph are classified purely
by their endpoints:

* path between two external vertices -> a through string or a same-row arc,
* path from an external vertex to a labeled middle vertex -> the external
  vertex becomes isolated and inherits the label,
* closed cycle -> a scalar factor delta,
* path between two labeled middle vertices -> a closed circuit. Its value is
  delta, but only once its two labels sit next to each other in the total
  order: the labels are operator application order on the spin factor, and a
  foreign operator wedged between the circuit's two ends obstructs collapsing
  them. Such pairs ride along as labeled "circuit pairs" and are removed the
  moment transpositions make their labels adjacent.

The labeled intermediate is rewritten into canonical diagrams by the
transposition rule: exchanging adjacently labeled ends rewrites a diagram D
as  -(D with the labels swapped) + 2 (D with the two ends joined),
mirroring the anticommutation of the underlying fermionic operators. Joining
two row vertices draws an arc or through string; joining a row vertex to a
circuit-pair end hands the partner end's label to that vertex; joining ends
of two different circuit pairs fuses them into one. Distinct rewrite paths
meet at common intermediates, so each distinct intermediate is expanded only
once, carrying the sum of the coefficients of all paths into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .diagrams import AlgebraElement, DiagramError, LabeledDiagram, SpinDiagram
from .scalars import DeltaPolynomial

__all__ = [
    "StitchResolution",
    "stitch_and_resolve",
    "clifford_normalize",
    "multiply_diagrams",
    "multiply_elements",
    "default_strategy",
    "ascending_strategy",
    "descending_strategy",
]

# Middle-graph nodes: ("T", v) top row, ("B", v) bottom row, ("MU", v) the
# upper port of middle vertex v (bottom row of the first factor), ("ML", v)
# the lower port (top row of the second factor).
Node = tuple[str, int]


@dataclass(frozen=True)
class StitchResolution:
    """Outcome of stacking: resolved circuit count and the labeled intermediate."""

    circuits_closed: int
    resolved: LabeledDiagram


def _adjacency(top: SpinDiagram, bottom: SpinDiagram) -> dict[Node, list[Node]]:
    n = top.n
    adj: dict[Node, list[Node]] = {}

    def link(u: Node, v: Node) -> None:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for v in range(1, n + 1):
        link(("MU", v), ("ML", v))
    for a, b in top.top_arcs:
        link(("T", a), ("T", b))
    for a, b in top.bottom_arcs:
        link(("MU", a), ("MU", b))
    for i, j in top.through:
        link(("T", i), ("MU", j))
    for a, b in bottom.top_arcs:
        link(("ML", a), ("ML", b))
    for a, b in bottom.bottom_arcs:
        link(("B", a), ("B", b))
    for i, j in bottom.through:
        link(("ML", i), ("B", j))
    for v in range(1, n + 1):
        adj.setdefault(("T", v), [])
        adj.setdefault(("B", v), [])
    return adj


def _build_renumbered(
    n: int,
    top_iso, bot_iso, top_arcs, bot_arcs, through,
    top_labels, bot_labels, pairs,
) -> LabeledDiagram:
    """Construct a LabeledDiagram, compressing arbitrary distinct labels to 1..t."""
    labels = sorted(tuple(top_labels) + tuple(bot_labels)
                    + tuple(l for p in pairs for l in p))
    newnum = {old: k + 1 for k, old in enumerate(labels)}
    return LabeledDiagram(
        n, tuple(top_iso), tuple(bot_iso),
        tuple(sorted(tuple(sorted(a)) for a in top_arcs)),
        tuple(sorted(tuple(sorted(a)) for a in bot_arcs)),
        tuple(sorted(through)),
        tuple(newnum[l] for l in top_labels),
        tuple(newnum[l] for l in bot_labels),
        tuple(sorted(tuple(sorted((newnum[a], newnum[b]))) for a, b in pairs)),
    )


def _drop_adjacent_pairs(diagram: LabeledDiagram) -> tuple[int, LabeledDiagram]:
    """Delete circuit pairs whose labels are adjacent, renumbering in between."""
    dropped = 0
    while True:
        hit = next((p for p in diagram.circuit_pairs if p[1] == p[0] + 1), None)
        if hit is None:
            return dropped, diagram
        dropped += 1
        diagram = _build_renumbered(
            diagram.n, diagram.top_isolated, diagram.bottom_isolated,
            diagram.top_arcs, diagram.bottom_arcs, diagram.through,
            diagram.top_labels, diagram.bottom_labels,
            tuple(p for p in diagram.circuit_pairs if p != hit),
        )


def stitch_and_resolve(top: SpinDiagram, bottom: SpinDiagram) -> StitchResolution:
    """Stack `top` over `bottom` and resolve every middle-graph component.

    circuits_closed counts the cycles plus the closed circuits removable
    right away (adjacent labels); any other closed circuit survives in the
    intermediate as a circuit pair.
    """
    if top.n != bottom.n:
        raise DiagramError(f"cannot stack diagrams with n={top.n} and n={bottom.n}")
    n = top.n

    # Global labels: top.top isolated, then top.bottom, then bottom.top,
    # then bottom.bottom, each in vertex order.
    labels: dict[Node, int] = {}
    next_label = 1
    for row, vs in (
        ("T", top.top_isolated),
        ("MU", top.bottom_isolated),
        ("ML", bottom.top_isolated),
        ("B", bottom.bottom_isolated),
    ):
        for v in vs:
            labels[(row, v)] = next_label
            next_label += 1

    adj = _adjacency(top, bottom)
    for node, nbrs in adj.items():
        assert len(nbrs) <= 2, f"node {node} has degree {len(nbrs)}"

    seen: set[Node] = set()
    cycles = 0
    pairs: list[tuple[int, int]] = []
    new_top_iso: dict[int, int] = {}  # vertex -> label
    new_bot_iso: dict[int, int] = {}
    new_top_arcs: list[tuple[int, int]] = []
    new_bot_arcs: list[tuple[int, int]] = []
    new_through: list[tuple[int, int]] = []

    def walk(start: Node) -> tuple[list[Node], bool]:
        """Path from an endpoint, or a cycle; returns (nodes, is_cycle)."""
        path = [start]
        seen.add(start)
        prev: Optional[Node] = None
        cur = start
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                return path, False
            step = nxt[0]
            if step == start:
                return path, True
            prev, cur = cur, step
            path.append(cur)
            seen.add(cur)

    # Degree-0 nodes are exactly the isolated vertices of the outer rows;
    # they keep their labels below and never enter a walk.
    endpoints = [u for u in adj if len(adj[u]) == 1]
    endpoints.sort(key=lambda u: (u[0], u[1]))
    for start in endpoints:
        if start in seen:
            continue
        path, is_cycle = walk(start)
        assert not is_cycle
        a, b = path[0], path[-1]
        external = [p for p in (a, b) if p[0] in ("T", "B")]
        middles = [p for p in (a, b) if p[0] in ("MU", "ML")]
        assert all(p in labels for p in middles), "open middle endpoint must be labeled"
        if len(external) == 2:
            (ra, va), (rb, vb) = external
            if ra == "T" and rb == "T":
                new_top_arcs.append((va, vb))
            elif ra == "B" and rb == "B":
                new_bot_arcs.append((va, vb))
            else:
                t, bnode = (va, vb) if ra == "T" else (vb, va)
                new_through.append((t, bnode))
        elif len(external) == 1:
            row, v = external[0]
            label = labels[middles[0]]
            if row == "T":
                new_top_iso[v] = label
            else:
                new_bot_iso[v] = label
        else:
            la, lb = labels[a], labels[b]
            pairs.append((min(la, lb), max(la, lb)))

    # Remaining unseen nodes lie on cycles (all middle): pure wiring, delta each.
    for node in adj:
        if node not in seen and adj[node]:
            _, is_cycle = walk(node)
            assert is_cycle
            cycles += 1

    # Isolated top/bottom vertices of the factors keep their labels.
    for v in top.top_isolated:
        new_top_iso[v] = labels[("T", v)]
    for v in bottom.bottom_isolated:
        new_bot_iso[v] = labels[("B", v)]

    top_iso_sorted = tuple(sorted(new_top_iso))
    bot_iso_sorted = tuple(sorted(new_bot_iso))
    resolved = _build_renumbered(
        n, top_iso_sorted, bot_iso_sorted,
        new_top_arcs, new_bot_arcs, new_through,
        tuple(new_top_iso[v] for v in top_iso_sorted),
        tuple(new_bot_iso[v] for v in bot_iso_sorted),
        pairs,
    )
    dropped, resolved = _drop_adjacent_pairs(resolved)
    return StitchResolution(cycles + dropped, resolved)


# --- normal ordering --------------------------------------------------------

# A strategy picks which inverted adjacent-label pair (i, i+1) of row
# vertices to transpose next, given the list of such pairs annotated with
# cross-row-ness. It is consulted only once no circuit pairs remain.
Strategy = Callable[[list[tuple[int, bool]]], int]


def default_strategy(pairs: list[tuple[int, bool]]) -> int:
    """Smallest label among cross-row pairs, else smallest label overall."""
    cross = [i for i, is_cross in pairs if is_cross]
    if cross:
        return min(cross)
    return min(i for i, _ in pairs)


def ascending_strategy(pairs: list[tuple[int, bool]]) -> int:
    return min(i for i, _ in pairs)


def descending_strategy(pairs: list[tuple[int, bool]]) -> int:
    return max(i for i, _ in pairs)


Holder = Union[tuple[str, int, int], tuple[str, int]]  # ("row", r, v) | ("pair", k)


def _holders(d: LabeledDiagram) -> dict[int, Holder]:
    out: dict[int, Holder] = {}
    for v, lab in zip(d.top_isolated, d.top_labels):
        out[lab] = ("row", 0, v)
    for v, lab in zip(d.bottom_isolated, d.bottom_labels):
        out[lab] = ("row", 1, v)
    for k, (a, b) in enumerate(d.circuit_pairs):
        out[a] = ("pair", k)
        out[b] = ("pair", k)
    return out


def _inverted_row_pairs(d: LabeledDiagram) -> list[tuple[int, bool]]:
    """Adjacent labels (i, i+1) on row vertices in out-of-canonical order."""
    pos = {}
    for v, lab in zip(d.top_isolated, d.top_labels):
        pos[lab] = (0, v)
    for v, lab in zip(d.bottom_isolated, d.bottom_labels):
        pos[lab] = (1, v)
    out = []
    for i in range(1, len(pos)):
        if i in pos and i + 1 in pos and pos[i + 1] < pos[i]:
            out.append((i, pos[i][0] != pos[i + 1][0]))
    return out


def _swap_labels(d: LabeledDiagram, i: int) -> LabeledDiagram:
    def sub(labels):
        return tuple(i + 1 if l == i else i if l == i + 1 else l for l in labels)

    return LabeledDiagram(
        d.n, d.top_isolated, d.bottom_isolated, d.top_arcs, d.bottom_arcs,
        d.through, sub(d.top_labels), sub(d.bottom_labels),
        tuple(sorted(tuple(sorted(sub(p))) for p in d.circuit_pairs)),
    )


def _row_vertex(d: LabeledDiagram, label: int) -> tuple[int, int]:
    for v, lab in zip(d.top_isolated, d.top_labels):
        if lab == label:
            return 0, v
    for v, lab in zip(d.bottom_isolated, d.bottom_labels):
        if lab == label:
            return 1, v
    raise AssertionError(f"label {label} not on a row vertex")


def _join_labels(d: LabeledDiagram, i: int) -> LabeledDiagram:
    """Join the ends labeled i and i+1 and delete both labels."""
    holders = _holders(d)
    ha, hb = holders[i], holders[i + 1]
    kinds = (ha[0], hb[0])
    if kinds == ("row", "row"):
        ra, va = _row_vertex(d, i)
        rb, vb = _row_vertex(d, i + 1)
        keep_top = [(v, l) for v, l in zip(d.top_isolated, d.top_labels)
                    if l not in (i, i + 1)]
        keep_bot = [(v, l) for v, l in zip(d.bottom_isolated, d.bottom_labels)
                    if l not in (i, i + 1)]
        top_arcs, bot_arcs, through = list(d.top_arcs), list(d.bottom_arcs), list(d.through)
        if ra == rb == 0:
            top_arcs.append((va, vb))
        elif ra == rb == 1:
            bot_arcs.append((va, vb))
        else:
            t, b = (va, vb) if ra == 0 else (vb, va)
            through.append((t, b))
        return _build_renumbered(
            d.n,
            tuple(v for v, _ in keep_top), tuple(v for v, _ in keep_bot),
            top_arcs, bot_arcs, through,
            tuple(l for _, l in keep_top), tuple(l for _, l in keep_bot),
            d.circuit_pairs,
        )
    if "row" in kinds:
        row_label = i if ha[0] == "row" else i + 1
        pair_holder = hb if ha[0] == "row" else ha
        k = pair_holder[1]
        a, b = d.circuit_pairs[k]
        partner = a if b in (i, i + 1) else b
        # The row vertex stays isolated and takes over the partner's label.
        sub = lambda labels: tuple(partner if l == row_label else l for l in labels)
        return _build_renumbered(
            d.n, d.top_isolated, d.bottom_isolated,
            d.top_arcs, d.bottom_arcs, d.through,
            sub(d.top_labels), sub(d.bottom_labels),
            tuple(p for idx, p in enumerate(d.circuit_pairs) if idx != k),
        )
    ka, kb = ha[1], hb[1]
    assert ka != kb, "adjacent same-pair labels must be dropped, not joined"
    pa, pb = d.circuit_pairs[ka], d.circuit_pairs[kb]
    partner_a = pa[0] if pa[1] in (i, i + 1) else pa[1]
    partner_b = pb[0] if pb[1] in (i, i + 1) else pb[1]
    rest = tuple(p for idx, p in enumerate(d.circuit_pairs) if idx not in (ka, kb))
    return _build_renumbered(
        d.n, d.top_isolated, d.bottom_isolated,
        d.top_arcs, d.bottom_arcs, d.through,
        d.top_labels, d.bottom_labels,
        rest + ((partner_a, partner_b),),
    )


def clifford_normalize(
    d: LabeledDiagram,
    coeff: DeltaPolynomial,
    strategy: Strategy = default_strategy,
) -> AlgebraElement:
    """Expand coeff * d as a Z[delta]-combination of canonical diagrams.

    Circuit pairs are resolved first (smallest-label pair, walking its upper
    label down); row labels are then sorted by the given strategy. The
    resulting element is independent of these choices.

    Different rewrite paths reach the same intermediate again and again, so
    the rewrites form a DAG over the states left by _drop_adjacent_pairs.
    Each distinct state is expanded exactly once: a depth-first pass records
    every state's two successors, then the coefficients flow through the
    states in topological order, summed over all paths into a state before
    they move on.
    """
    # succ[s]: the (successor, factor) pairs of s, or None for a canonical s.
    succ: dict[LabeledDiagram, Optional[tuple]] = {}
    post_order: list[LabeledDiagram] = []
    dropped, root = _drop_adjacent_pairs(d)
    stack: list[tuple[LabeledDiagram, bool]] = [(root, False)]
    while stack:
        cur, expanded = stack.pop()
        if expanded:
            post_order.append(cur)
            continue
        if cur in succ:
            continue
        if cur.circuit_pairs:
            a, b = min(cur.circuit_pairs)
            i = b - 1
        else:
            pairs = _inverted_row_pairs(cur)
            if not pairs:
                succ[cur] = None
                post_order.append(cur)
                continue
            i = strategy(pairs)
        swap_dropped, swapped = _drop_adjacent_pairs(_swap_labels(cur, i))
        join_dropped, joined = _drop_adjacent_pairs(_join_labels(cur, i))
        succ[cur] = (
            (swapped, DeltaPolynomial({swap_dropped: -1})),
            (joined, DeltaPolynomial({join_dropped: 2})),
        )
        stack += ((cur, True), (swapped, False), (joined, False))

    # Reverse post-order is topological: every path into a state is summed
    # before the state passes its coefficient on.
    coeffs = {root: coeff * DeltaPolynomial.delta(dropped)}
    terms: list[tuple[SpinDiagram, DeltaPolynomial]] = []
    for cur in reversed(post_order):
        c = coeffs.pop(cur, None)
        if not c:
            continue
        successors = succ[cur]
        if successors is None:
            terms.append((cur.to_spin(), c))
            continue
        for nxt, factor in successors:
            coeffs[nxt] = coeffs.get(nxt, DeltaPolynomial.zero()) + c * factor
    return AlgebraElement(d.n, terms)


def multiply_diagrams(
    top: SpinDiagram, bottom: SpinDiagram, strategy: Strategy = default_strategy
) -> AlgebraElement:
    """Product of two basis diagrams, `top` stacked over `bottom`.

    As a linear map the top diagram applies first, so this computes
    (bottom) . (top) in composition order.
    """
    res = stitch_and_resolve(top, bottom)
    return clifford_normalize(
        res.resolved, DeltaPolynomial.delta(res.circuits_closed), strategy
    )


def multiply_elements(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the diagram product (a on top of b)."""
    if a.n != b.n:
        raise DiagramError("cannot multiply elements with different n")
    out = AlgebraElement.zero(a.n)
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            out = out + multiply_diagrams(d1, d2).scale(c1 * c2)
    return out
