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

Inside the normal form an intermediate is a plain tuple
(top_arcs, bottom_arcs, through, word). word[k] holds label k + 1: a top-row
vertex v is stored as v, a bottom-row vertex v as n + v, and both ends of
circuit pair j as -j, the pairs numbered -1, -2, ... by the position of their
first end. Labels are positions, so deleting an entry renumbers the rest, and
equal intermediates are equal tuples. LabeledDiagram is only the boundary
form: stitch_and_resolve returns one and clifford_normalize takes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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


# A normal-form state: (top_arcs, bottom_arcs, through, word); see above.
Arc = tuple[int, int]
State = tuple[tuple[Arc, ...], tuple[Arc, ...], tuple[Arc, ...], tuple[int, ...]]


def _settle(word: list[int]) -> tuple[int, tuple[int, ...]]:
    """Drop every circuit pair whose ends became adjacent, then number the
    remaining pairs -1, -2, ... by their first end; returns (dropped, word)."""
    kept: list[int] = []
    for x in word:
        if x < 0 and kept and kept[-1] == x:
            kept.pop()
        else:
            kept.append(x)
    names: dict[int, int] = {}
    for x in kept:
        if x < 0 and x not in names:
            names[x] = -1 - len(names)
    return (len(word) - len(kept)) // 2, tuple(names.get(x, x) for x in kept)


def _labeled(n: int, state: State) -> LabeledDiagram:
    """The boundary form of a settled state."""
    top_arcs, bottom_arcs, through, word = state
    top = sorted((v, k) for k, v in enumerate(word, 1) if 0 < v <= n)
    bottom = sorted((v - n, k) for k, v in enumerate(word, 1) if v > n)
    ends = [k for _, k in sorted((-v, k) for k, v in enumerate(word, 1) if v < 0)]
    return LabeledDiagram(
        n, tuple(v for v, _ in top), tuple(v for v, _ in bottom),
        top_arcs, bottom_arcs, through,
        tuple(k for _, k in top), tuple(k for _, k in bottom),
        tuple(zip(ends[::2], ends[1::2])),
    )


def _word_of(d: LabeledDiagram) -> list[int]:
    """The word of a boundary diagram, its pairs not yet settled."""
    word = [0] * (len(d.top_labels) + len(d.bottom_labels) + 2 * len(d.circuit_pairs))
    for v, label in zip(d.top_isolated, d.top_labels):
        word[label - 1] = v
    for v, label in zip(d.bottom_isolated, d.bottom_labels):
        word[label - 1] = d.n + v
    for j, pair in enumerate(d.circuit_pairs, 1):
        for label in pair:
            word[label - 1] = -j
    return word


def stitch_and_resolve(top: SpinDiagram, bottom: SpinDiagram) -> StitchResolution:
    """Stack `top` over `bottom` and resolve every middle-graph component.

    circuits_closed counts the cycles plus the closed circuits removable
    right away (adjacent labels); any other closed circuit survives in the
    intermediate as a circuit pair.
    """
    if top.n != bottom.n:
        raise DiagramError(f"cannot stack diagrams with n={top.n} and n={bottom.n}")
    n = top.n

    # Word positions (labels - 1): top.top isolated, then top.bottom, then
    # bottom.top, then bottom.bottom, each in vertex order.
    position: dict[Node, int] = {}
    for row, vs in (
        ("T", top.top_isolated),
        ("MU", top.bottom_isolated),
        ("ML", bottom.top_isolated),
        ("B", bottom.bottom_isolated),
    ):
        for v in vs:
            position[(row, v)] = len(position)
    # Isolated top/bottom vertices of the factors keep their labels.
    word = [0] * len(position)
    for v in top.top_isolated:
        word[position[("T", v)]] = v
    for v in bottom.bottom_isolated:
        word[position[("B", v)]] = n + v

    adj = _adjacency(top, bottom)
    for node, nbrs in adj.items():
        assert len(nbrs) <= 2, f"node {node} has degree {len(nbrs)}"

    seen: set[Node] = set()
    cycles = 0
    pairs = 0
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
    # they keep their labels above and never enter a walk.
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
        assert all(p in position for p in middles), "open middle endpoint must be labeled"
        if len(external) == 2:
            (ra, va), (rb, vb) = external
            if ra == "T" and rb == "T":
                new_top_arcs.append((min(va, vb), max(va, vb)))
            elif ra == "B" and rb == "B":
                new_bot_arcs.append((min(va, vb), max(va, vb)))
            else:
                t, bnode = (va, vb) if ra == "T" else (vb, va)
                new_through.append((t, bnode))
        elif len(external) == 1:
            row, v = external[0]
            word[position[middles[0]]] = v if row == "T" else n + v
        else:
            pairs += 1
            word[position[a]] = word[position[b]] = -pairs

    # Remaining unseen nodes lie on cycles (all middle): pure wiring, delta each.
    for node in adj:
        if node not in seen and adj[node]:
            _, is_cycle = walk(node)
            assert is_cycle
            cycles += 1

    dropped, settled = _settle(word)
    state = (tuple(sorted(new_top_arcs)), tuple(sorted(new_bot_arcs)),
             tuple(sorted(new_through)), settled)
    return StitchResolution(cycles + dropped, _labeled(n, state))


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


def _partner(word: list[int], k: int) -> int:
    """Position of the other end of the circuit pair with an end at k."""
    first = word.index(word[k])
    return first if first != k else word.index(word[k], k + 1)


def _swap_labels(state: State, i: int) -> tuple[int, State]:
    """Exchange the holders of labels i and i + 1; returns (dropped, state)."""
    top_arcs, bottom_arcs, through, word = state
    w = list(word)
    w[i - 1], w[i] = w[i], w[i - 1]
    dropped, settled = _settle(w)
    return dropped, (top_arcs, bottom_arcs, through, settled)


def _join_labels(state: State, i: int, n: int) -> tuple[int, State]:
    """Join the ends labeled i and i + 1 and delete both labels; returns
    (dropped, state)."""
    top_arcs, bottom_arcs, through, word = state
    w = list(word)
    x, y = w[i - 1], w[i]
    if x > 0 and y > 0:
        a, b = min(x, y), max(x, y)
        if b <= n:
            top_arcs = tuple(sorted(top_arcs + ((a, b),)))
        elif a > n:
            bottom_arcs = tuple(sorted(bottom_arcs + ((a - n, b - n),)))
        else:
            through = tuple(sorted(through + ((a, b - n),)))
    elif x < 0:
        # The far end of x's pair now meets y: a row vertex takes over the
        # partner's label, another pair's end fuses the two pairs.
        w[_partner(w, i - 1)] = y
    else:
        w[_partner(w, i)] = x
    del w[i - 1:i + 1]
    dropped, settled = _settle(w)
    return dropped, (top_arcs, bottom_arcs, through, settled)


def clifford_normalize(
    d: LabeledDiagram,
    coeff: DeltaPolynomial,
    strategy: Strategy = default_strategy,
) -> AlgebraElement:
    """Expand coeff * d as a Z[delta]-combination of canonical diagrams.

    Circuit pairs are resolved first (the pair with the smallest first label,
    walking its second end down); row labels are then sorted by the given
    strategy. The resulting element is independent of these choices.

    Different rewrite paths reach the same intermediate again and again, so
    the rewrites form a DAG over the settled states. Each distinct state is
    expanded exactly once: a depth-first pass records every state's two
    successors, then the coefficients flow through the states in topological
    order, summed over all paths into a state before they move on.
    """
    n = d.n
    dropped, word = _settle(_word_of(d))
    root = (d.top_arcs, d.bottom_arcs, d.through, word)
    # succ[s]: the (successor, factor) pairs of s, or None for a canonical s.
    succ: dict[State, Optional[tuple]] = {}
    post_order: list[State] = []
    stack: list[tuple[State, bool]] = [(root, False)]
    while stack:
        cur, expanded = stack.pop()
        if expanded:
            post_order.append(cur)
            continue
        if cur in succ:
            continue
        word = cur[3]
        if -1 in word:
            # Move the second end of pair -1 one label down.
            i = word.index(-1, word.index(-1) + 1)
        else:
            # Adjacent descents: row labels (i, i + 1) out of canonical order.
            pairs = [(k, (a <= n) != (b <= n))
                     for k, (a, b) in enumerate(zip(word, word[1:]), 1) if a > b]
            if not pairs:
                succ[cur] = None
                post_order.append(cur)
                continue
            i = strategy(pairs)
        swap_dropped, swapped = _swap_labels(cur, i)
        join_dropped, joined = _join_labels(cur, i, n)
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
            top_arcs, bottom_arcs, through, word = cur
            spin = SpinDiagram(n, tuple(v for v in word if v <= n),
                               tuple(v - n for v in word if v > n),
                               top_arcs, bottom_arcs, through)
            terms.append((spin, c))
            continue
        for nxt, factor in successors:
            coeffs[nxt] = coeffs.get(nxt, DeltaPolynomial.zero()) + c * factor
    return AlgebraElement(n, terms)


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
