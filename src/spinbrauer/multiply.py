"""Combinatorial multiplication of spin-Brauer diagrams.

Stacking two diagrams identifies the bottom row of the first with the top row
of the second. Components of the resulting middle row are classified purely
by their two far ends:

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
of two different circuit pairs fuses them into one. The normal form applies
the rule a whole move at a time, each move a sum over single-rewrite chains:
* closing pair -1 walks its second end down past the k entries between its
  ends: sum_{j=1..k} 2(-1)^(j-1) J_j + (-1)^k delta S, where J_j joins the
  end with the j-th entry below it and S deletes both ends;
* inserting a row label walks the holder of label i + 1, for a descent
  (i, i + 1), past the m larger labels right before it:
  sum_{j=1..m} 2(-1)^(j-1) (join with the j-th) + (-1)^m (moved word).

A caller that needs only the terms with at least some number of through
strings (the floor) can leave out every state that cannot reach it. The
bound _reach(state) is len(through) + min(#top labels, #bottom labels)
while circuit pairs remain, and len(through) + the bracket matching of
bottom labels (opening) against later top labels (closing) once none do. It
never increases along a single rewrite, so neither along a move:
* a swap keeps the label counts and, with no pairs left, either keeps the
  row pattern or turns a (bottom, top) descent into (top, bottom), which
  cannot add a matched pair;
* a join of a top and a bottom label adds one through string and takes one
  off the minimum, or an adjacent matched pair off the matching; any other
  join removes labels of one row or none;
* the matching never exceeds the minimum, so dropping the last pair cannot
  raise the bound either.

On a canonical state every top label comes first, so the bound is the
through count. Hence every path to a term at or above the floor runs
through states at or above it, and the DAG cut to those states gives
exactly those terms with their exact coefficients.

Inside the normal form an intermediate is a plain tuple
(top_arcs, bottom_arcs, through, word). word[k] holds label k + 1: a top-row
vertex v is stored as v, a bottom-row vertex v as n + v, and both ends of
circuit pair j as -j, the pairs numbered -1, -2, ... by the position of their
first end. Labels are positions, so deleting an entry renumbers the rest, and
equal intermediates are equal tuples. This is the one form of the stitched
intermediate: stitch_and_resolve hands it on as a Stitched (n and the
state), whose labels are read off the word only when asked for, and
clifford_normalize passes that state straight to _normal_form.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .diagrams import AlgebraElement, DiagramError, SpinDiagram
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

# A normal-form state: (top_arcs, bottom_arcs, through, word); see above.
Arc = tuple[int, int]
State = tuple[tuple[Arc, ...], tuple[Arc, ...], tuple[Arc, ...], tuple[int, ...]]


def _labels(word: tuple[int, ...], codes: range) -> tuple[int, ...]:
    """The labels (word positions from 1) of the entries in codes, ordered
    by |entry| and then position: a row's labels in vertex order, or the two
    ends of pair -1, then of pair -2, ..."""
    return tuple(k for _, k in sorted((abs(v), k) for k, v in enumerate(word, 1) if v in codes))


@dataclass(frozen=True)
class Stitched:
    """A settled stitched intermediate on n + n vertices (see above); its
    labels are computed from the word when read."""

    n: int
    state: State

    @property
    def top_labels(self) -> tuple[int, ...]:
        return _labels(self.state[3], range(1, self.n + 1))

    @property
    def bottom_labels(self) -> tuple[int, ...]:
        return _labels(self.state[3], range(self.n + 1, 2 * self.n + 1))

    @property
    def circuit_pairs(self) -> tuple[tuple[int, int], ...]:
        ends = _labels(self.state[3], range(-len(self.state[3]), 0))
        return tuple(zip(ends[::2], ends[1::2]))


@dataclass(frozen=True)
class StitchResolution:
    """Outcome of stacking: resolved circuit count and the settled intermediate."""

    circuits_closed: int
    resolved: Stitched


def _settle(word: list[int]) -> tuple[int, tuple[int, ...]]:
    """Drop every circuit pair whose ends became adjacent, then number the
    remaining pairs -1, -2, ... by their first end; returns (dropped, word).
    A word without pairs is already settled."""
    if min(word, default=0) >= 0:
        return 0, tuple(word)
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


def _joined(x: int, y: int, n: int) -> tuple[int, Arc]:
    """The string joining outer ends x and y, coded as in the word: which
    part it belongs to (0 top arcs, 1 bottom arcs, 2 through) and the pair."""
    a, b = min(x, y), max(x, y)
    if b <= n:
        return 0, (a, b)
    if a > n:
        return 1, (a - n, b - n)
    return 2, (a, b - n)


def _stitch(top: SpinDiagram, bottom: SpinDiagram) -> tuple[int, State]:
    """Stack `top` over `bottom` and resolve every middle-row component;
    returns (closed, state), the state settled.

    Middle vertex v has an upper end (in the bottom row of `top`) and a lower
    end (in the top row of `bottom`). Each end leads along an arc to another
    middle vertex, whose other end the component continues from, or along a
    through string to an outer vertex, coded as in the word, or it is
    isolated at some word position. Following both ends of v gives the
    component's two far ends, or brings the path back to v: a cycle.

    closed counts the cycles plus the closed circuits removable right away
    (adjacent labels); any other closed circuit survives in the state as a
    circuit pair.
    """
    if top.n != bottom.n:
        raise DiagramError(f"cannot stack diagrams with n={top.n} and n={bottom.n}")
    n = top.n
    # Word positions: top.top isolated, then top.bottom, then bottom.top,
    # then bottom.bottom, each in vertex order. The outer isolated vertices
    # keep their places; the middle ones wait for the far end of their path.
    word = list(top.top_isolated)
    upper_start = len(word)
    lower_start = upper_start + len(top.bottom_isolated)
    word += [0] * (lower_start - upper_start + len(bottom.top_isolated))
    word += [n + v for v in bottom.bottom_isolated]
    # mate[s][v]: the middle vertex at the other end of v's arc on side s
    # (0 upper, 1 lower), or 0; far[s][v] otherwise: the outer code, or ~k
    # for the isolated end at word position k.
    mate = ([0] * (n + 1), [0] * (n + 1))
    far = ([0] * (n + 1), [0] * (n + 1))
    for side, arcs in ((0, top.bottom_arcs), (1, bottom.top_arcs)):
        for a, b in arcs:
            mate[side][a], mate[side][b] = b, a
    for i, j in top.through:
        far[0][j] = i
    for i, j in bottom.through:
        far[1][i] = n + j
    for k, v in enumerate(top.bottom_isolated, upper_start):
        far[0][v] = ~k
    for k, v in enumerate(bottom.top_isolated, lower_start):
        far[1][v] = ~k

    # Outer arcs never reach the middle row; they carry over unchanged.
    parts: tuple[list[Arc], ...] = (list(top.top_arcs), list(bottom.bottom_arcs), [])
    seen = [False] * (n + 1)
    cycles = pairs = 0
    for v in range(1, n + 1):
        if seen[v]:
            continue
        ends = []
        for first_side in (0, 1):
            w, side = v, first_side
            while mate[side][w] and mate[side][w] != v:
                w = mate[side][w]
                seen[w] = True
                side ^= 1
            if mate[side][w]:  # back at v: a cycle
                break
            ends.append(far[side][w])
        if len(ends) < 2:
            cycles += 1
            continue
        x, y = ends
        if x > 0 and y > 0:
            part, arc = _joined(x, y, n)
            parts[part].append(arc)
        elif x > 0:
            word[~y] = x
        elif y > 0:
            word[~x] = y
        else:
            pairs += 1
            word[~x] = word[~y] = -pairs

    dropped, settled = _settle(word) if pairs else (0, tuple(word))
    return cycles + dropped, (*(tuple(sorted(p)) for p in parts), settled)


def stitch_and_resolve(top: SpinDiagram, bottom: SpinDiagram) -> StitchResolution:
    """Stack `top` over `bottom` and resolve every middle-row component
    (see _stitch)."""
    closed, state = _stitch(top, bottom)
    return StitchResolution(closed, Stitched(top.n, state))


# --- normal ordering --------------------------------------------------------

# A strategy picks at which inverted adjacent-label pair (i, i+1) of row
# vertices to insert a label next, given the list of such pairs annotated with
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


def _close_pair(state: State, known: dict[State, int]) -> list[tuple[int, State, int]]:
    """The (dropped, state, factor) successors of walking the second end of
    pair -1 down past the k entries between its ends: 2(-1)**(j - 1) times
    it joined with the j-th entry below, j = 1..k, and (-1)**k delta times
    the state without the pair. If k > 2 and a first step past another
    pair's end reaches a known state, -1 times it stands for the rest."""
    *parts, word = state
    first = word.index(-1)
    second = word.index(-1, first + 1)
    moves = []
    factor = 2
    for p in range(second - 1, first, -1):
        x = word[p]
        w = list(word)
        w[p] = 0  # so that w.index(x) finds the other end of a pair
        if x > 0:
            w[first] = x
        else:
            w[w.index(x)] = -1
        del w[second], w[p]
        dropped, settled = _settle(w)
        moves.append((dropped, (*parts, settled), factor))
        factor = -factor
        if p == second - 1 and x < 0 and p > first + 2:
            dropped, settled = _settle([*word[:p], -1, x, *word[second + 1:]])
            if (*parts, settled) in known:
                return moves + [(dropped, (*parts, settled), -1)]
    dropped, settled = _settle([v for v in word if v != -1])
    return moves + [(dropped + 1, (*parts, settled), factor // 2)]


def _insert_label(state: State, i: int, n: int) -> list[tuple[int, State, int]]:
    """The (0, state, factor) successors of walking the holder y of label
    i + 1 down past the m larger entries right before it: for j = 1..m,
    2(-1)**(j - 1) times y joined with the j-th entry below it, then
    (-1)**m times the word with y moved."""
    *parts, word = state
    y = word[i]
    moves = []
    factor = 2
    p = i - 1
    while p >= 0 and word[p] > y:
        part, arc = _joined(word[p], y, n)
        joined = list(parts)
        joined[part] = tuple(sorted(parts[part] + (arc,)))
        moves.append((0, (*joined, word[:p] + word[p + 1:i] + word[i + 1:]), factor))
        factor = -factor
        p -= 1
    return moves + [(0, (*parts, word[:p + 1] + (y,) + word[p + 1:i] + word[i + 1:]), factor // 2)]


def _canonical(n: int, state: State) -> SpinDiagram:
    """The basis diagram of a canonical state (no pairs, ascending word)."""
    top_arcs, bottom_arcs, through, word = state
    k = bisect_right(word, n)
    return SpinDiagram._trusted(n, word[:k], tuple(v - n for v in word[k:]),
                                top_arcs, bottom_arcs, through)


def _reach(n: int, state: State) -> int:
    """An upper bound on the through count of every canonical state that
    state rewrites to, equal to the through count on a canonical state.

    Only a join of a top and a bottom label draws a through string, and
    while circuit pairs remain the normal form joins none. Once none
    remain, a join needs the two labels adjacent with the bottom one first,
    and no swap puts a bottom label back before a top one; so at most the
    bottom labels standing before top labels, matched like brackets, can
    still join. See the module docstring for why this never increases.
    """
    through, word = len(state[2]), state[3]
    if min(word, default=0) < 0:
        top = sum(1 for v in word if 0 < v <= n)
        return through + min(top, sum(1 for v in word if v > n))
    waiting = matched = 0
    for v in word:
        if v > n:
            waiting += 1
        elif waiting:
            waiting -= 1
            matched += 1
    return through + matched


def _normal_form(
    n: int, root: State, coeff: dict[int, int], strategy: Strategy, floor: int
) -> dict[SpinDiagram, DeltaPolynomial]:
    """The terms of coeff * root with at least floor through strings, each
    with its exact coefficient; root is settled and coeff an
    {exponent: int} table without zeros, an empty one giving {} at once.

    Circuit pairs are closed first (_close_pair); row labels are then
    inserted at the descents the given strategy picks (_insert_label). The
    result is independent of these choices.

    Different moves reach the same intermediate again and again, so they
    form a DAG over the settled states. Each distinct state is expanded
    exactly once: a depth-first pass records the successors of every
    state's move, then the coefficients flow through the states in
    topological order, summed over all paths into a state before they move
    on. A state whose _reach is below floor leads only to lower terms, so a
    positive floor leaves it out of the DAG; floor 0 never computes _reach.
    """
    if not coeff or floor and _reach(n, root) < floor:
        return {}
    if root[3] == tuple(sorted(root[3])):
        # Canonical already: a settled word holds no two equal entries in a
        # row, so an ascending one holds no circuit pair either.
        return {_canonical(n, root): DeltaPolynomial._wrap(coeff)}
    # States are numbered as they are first reached (ids, states), so that a
    # state is hashed only when a move reaches it; a state left out for
    # the floor is numbered -1. succ[k]: the (successor, shift, factor)
    # edges of state k, or None for a canonical state; an edge multiplies
    # by factor * delta**shift.
    ids = {root: 0}
    states = [root]
    succ: dict[int, Optional[list]] = {}
    post_order: list[int] = []
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        k, expanded = stack.pop()
        if expanded:
            post_order.append(k)
            continue
        if k in succ:
            continue
        cur = states[k]
        word = cur[3]
        if -1 in word:
            moves = _close_pair(cur, ids)
        else:
            # Adjacent descents: row labels (i, i + 1) out of canonical order.
            pairs = [(p, (a <= n) != (b <= n))
                     for p, (a, b) in enumerate(zip(word, word[1:]), 1) if a > b]
            if not pairs:
                succ[k] = None
                post_order.append(k)
                continue
            moves = _insert_label(cur, strategy(pairs), n)
        edges = []
        stack.append((k, True))
        for shift, nxt, factor in moves:
            j = ids.setdefault(nxt, len(states))
            if j == len(states):
                if floor and _reach(n, nxt) < floor:
                    ids[nxt] = -1
                    continue
                states.append(nxt)
            elif j < 0:
                continue
            edges.append((j, shift, factor))
            stack.append((j, False))
        succ[k] = edges

    # Reverse post-order is topological: every path into a state is summed
    # before the state passes its coefficient on. Coefficients flow as plain
    # {exponent: int} tables; a canonical state strips its zeros once.
    coeffs = {0: coeff}
    terms: dict[SpinDiagram, DeltaPolynomial] = {}
    for k in reversed(post_order):
        c = coeffs.pop(k, None)
        if not c:
            continue
        successors = succ[k]
        if successors is None:
            c = {e: v for e, v in c.items() if v}
            if c:
                terms[_canonical(n, states[k])] = DeltaPolynomial._wrap(c)
            continue
        for nxt, shift, factor in successors:
            acc = coeffs.get(nxt)
            if acc is None:
                coeffs[nxt] = {e + shift: v * factor for e, v in c.items()}
            else:
                for e, v in c.items():
                    e += shift
                    acc[e] = acc.get(e, 0) + v * factor
    return terms


def clifford_normalize(
    d: Stitched,
    coeff: Union[DeltaPolynomial, int],
    strategy: Strategy = default_strategy,
) -> AlgebraElement:
    """Expand coeff * d as a Z[delta]-combination of canonical diagrams.

    The strategy picks the descents at which row labels are inserted (see
    _normal_form); the resulting element does not depend on it.
    """
    if isinstance(coeff, int):
        coeff = DeltaPolynomial.constant(coeff)
    c = dict(coeff.items())
    return AlgebraElement._wrap(d.n, _normal_form(d.n, d.state, c, strategy, 0))


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
    return AlgebraElement(a.n, (
        (d, p * c)
        for d1, c1 in a.terms.items()
        for d2, c2 in b.terms.items()
        for c in (c1 * c2,)
        for d, p in multiply_diagrams(d1, d2).terms.items()
    ))
