"""Spin-Brauer diagram data model.

A diagram on two rows of n vertices is a five-part datum: ordered isolated
vertices in each row, arcs (partial matchings) within each row, and a
bijection between the leftover vertices (through strings). Canonical form
keeps both isolated lists ascending; their implicit labels run 1..k along
the top row and 1..l along the bottom, with every top label ordered before
every bottom label.

This module owns validation, JSON (de)serialization, the row-swap involution,
the cell-triple encoding, the size-<=2 row partitions and the basis built from
them, and formal Z[delta]-linear combinations of diagrams.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .scalars import DeltaPolynomial

__all__ = [
    "DiagramError",
    "SpinDiagram",
    "LabeledDiagram",
    "AlgebraElement",
    "CellTriple",
    "identity_diagram",
    "parse_diagram",
    "emit_diagram",
    "diagram_key",
    "enumerate_basis",
    "enumerate_size_le2_partitions",
    "singletons",
    "enumerate_S",
    "involution",
    "cell_encode",
    "cell_decode",
    "pretty",
    "DEFAULT_ENUMERATION_BOUND",
]

DEFAULT_ENUMERATION_BOUND = 5

# The largest n whose partitions into blocks of size 1 or 2 are listed
# (140,152 of them at n = 12).
_PARTITION_BOUND = 12

Arc = tuple[int, int]


class DiagramError(ValueError):
    """Structured validation failure; the message names the broken invariant."""


def _normalize_arcs(arcs: Iterable[Sequence[int]]) -> tuple[Arc, ...]:
    out = []
    for pair in arcs:
        a, b = pair[0], pair[1]
        if a == b:
            raise DiagramError(f"arc ({a},{b}) joins a vertex to itself")
        out.append((min(a, b), max(a, b)))
    return tuple(sorted(out))


def _check_row(n: int, isolated: Sequence[int], arcs: Sequence[Arc],
               through_ends: Sequence[int], row: str) -> None:
    seen: set[int] = set()
    for v in list(isolated) + [v for arc in arcs for v in arc] + list(through_ends):
        if not 1 <= v <= n:
            raise DiagramError(f"{row} vertex {v} outside 1..{n}")
        if v in seen:
            raise DiagramError(f"{row} vertex {v} used twice")
        seen.add(v)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise DiagramError(f"{row} vertices {missing} not covered")
    if list(isolated) != sorted(isolated):
        raise DiagramError(f"{row} isolated list not ascending")


def _normalize_rows(d) -> None:
    """Put the rows of d (a SpinDiagram or LabeledDiagram under
    construction) in canonical form and check them. n and every vertex must
    be an int: a float, a bool or a numeric string is refused, not coerced."""
    for v in itertools.chain((d.n,), d.top_isolated, d.bottom_isolated,
                             *d.top_arcs, *d.bottom_arcs, *d.through):
        if type(v) is not int:
            raise DiagramError(f"{v!r} is not an integer")
    object.__setattr__(d, "top_isolated", tuple(d.top_isolated))
    object.__setattr__(d, "bottom_isolated", tuple(d.bottom_isolated))
    object.__setattr__(d, "top_arcs", _normalize_arcs(d.top_arcs))
    object.__setattr__(d, "bottom_arcs", _normalize_arcs(d.bottom_arcs))
    object.__setattr__(d, "through", tuple(sorted((i, j) for i, j in d.through)))
    if d.n < 0:
        raise DiagramError("n must be nonnegative")
    tops = [i for i, _ in d.through]
    bots = [j for _, j in d.through]
    if len(set(bots)) != len(bots):
        raise DiagramError("through strings are not a bijection")
    _check_row(d.n, d.top_isolated, d.top_arcs, tops, "top")
    _check_row(d.n, d.bottom_isolated, d.bottom_arcs, bots, "bottom")


_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _adopt(cls, *values):
    """An instance of the frozen dataclass cls holding values in field
    order, made without normalization or checks."""
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    d = object.__new__(cls)
    d.__dict__.update(zip(names, values, strict=True))
    return d


@dataclass(frozen=True)
class SpinDiagram:
    """Canonical diagram: the basis element of the algebra."""

    n: int
    top_isolated: tuple[int, ...]
    bottom_isolated: tuple[int, ...]
    top_arcs: tuple[Arc, ...]
    bottom_arcs: tuple[Arc, ...]
    through: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _normalize_rows(self)

    # Adopt the fields, in order, unchecked. The caller guarantees ascending
    # isolated lists, arcs (a, b) with a < b in sorted order, sorted through
    # pairs, and rows that cover 1..n. Only the normal form and
    # enumerate_basis build diagrams this way; every other diagram is
    # validated.
    _trusted = classmethod(_adopt)

    @property
    def through_count(self) -> int:
        return len(self.through)

    def through_map(self) -> dict[int, int]:
        return dict(self.through)


def identity_diagram(n: int) -> SpinDiagram:
    return SpinDiagram(n, (), (), (), (), tuple((i, i) for i in range(1, n + 1)))


def emit_diagram(d: SpinDiagram) -> dict:
    return {
        "n": d.n,
        "top": {"isolated": list(d.top_isolated), "arcs": [list(a) for a in d.top_arcs]},
        "bottom": {
            "isolated": list(d.bottom_isolated),
            "arcs": [list(a) for a in d.bottom_arcs],
        },
        "through": [list(p) for p in d.through],
    }


def diagram_key(d: SpinDiagram) -> str:
    """Canonical serialization; used to order terms deterministically."""
    return json.dumps(emit_diagram(d), sort_keys=True, separators=(",", ":"))


def _integers(*values) -> tuple[int, ...]:
    """The values, each checked to be an int (a bool is not one)."""
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{v!r} is not an integer")
    return values


def parse_diagram(source: Union[str, Mapping]) -> SpinDiagram:
    """Parse and validate the JSON form of a diagram.

    Strict: every number must be a JSON integer (not a float, a bool or a
    numeric string), isolated lists must already be ascending, arcs must be
    stored smaller-vertex-first in sorted order, and through pairs sorted by
    first coordinate, so that emit is the exact inverse of parse.
    """
    obj = json.loads(source) if isinstance(source, str) else source
    try:
        (n,) = _integers(obj["n"])
        top = obj["top"]
        bottom = obj["bottom"]
        through = [_integers(i, j) for i, j in obj["through"]]
        rows = {
            "top": (_integers(*top["isolated"]),
                    [_integers(a, b) for a, b in top["arcs"]]),
            "bottom": (_integers(*bottom["isolated"]),
                       [_integers(a, b) for a, b in bottom["arcs"]]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise DiagramError(f"malformed diagram JSON: {exc}") from exc
    for row, (_iso, arcs) in rows.items():
        for a, b in arcs:
            if a >= b:
                raise DiagramError(f"{row} arc ({a},{b}) not stored smaller vertex first")
        if arcs != sorted(arcs):
            raise DiagramError(f"{row} arcs not sorted")
    if through != sorted(through):
        raise DiagramError("through pairs not sorted by first coordinate")
    return SpinDiagram(
        n,
        rows["top"][0],
        rows["bottom"][0],
        tuple(rows["top"][1]),
        tuple(rows["bottom"][1]),
        tuple(through),
    )


@dataclass(frozen=True)
class LabeledDiagram:
    """Stitch/normal-form boundary type: isolated vertices carry explicit labels.

    stitch_and_resolve returns one, and clifford_normalize takes one; the
    normal form itself works on plain int tuples (see multiply).

    Labels form {1..t} in an arbitrary order across the two rows plus any
    circuit pairs. A circuit pair is the remnant of a closed component of a
    stacked product whose two labeled ends were not adjacent in the total
    order; it carries no vertices of its own and disappears (with a scalar
    delta) once transpositions have made its labels adjacent. A diagram is
    canonical exactly when it has no circuit pairs and reading the labels top
    row left-to-right then bottom row left-to-right yields 1, 2, ..., t.
    """

    n: int
    top_isolated: tuple[int, ...]
    bottom_isolated: tuple[int, ...]
    top_arcs: tuple[Arc, ...]
    bottom_arcs: tuple[Arc, ...]
    through: tuple[tuple[int, int], ...]
    top_labels: tuple[int, ...]
    bottom_labels: tuple[int, ...]
    circuit_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for row in ("top", "bottom"):
            isolated = getattr(self, f"{row}_isolated")
            labels = getattr(self, f"{row}_labels")
            if len(labels) != len(isolated):
                raise DiagramError(f"{row} label list length mismatch")
            # A row reads left to right; each label keeps its vertex.
            pairs = sorted(zip(isolated, labels))
            object.__setattr__(self, f"{row}_isolated", tuple(v for v, _ in pairs))
            object.__setattr__(self, f"{row}_labels", tuple(l for _, l in pairs))
        object.__setattr__(self, "circuit_pairs", tuple(map(tuple, self.circuit_pairs)))
        _normalize_rows(self)
        labels = sorted(
            self.top_labels
            + self.bottom_labels
            + tuple(l for pair in self.circuit_pairs for l in pair)
        )
        if labels != list(range(1, len(labels) + 1)):
            raise DiagramError("labels are not exactly 1..t")

    # Adopt the fields, in order, unchecked: the canonical rows of a
    # SpinDiagram plus labels that are exactly 1..t. Only the stitch's
    # boundary conversion builds them this way.
    _trusted = classmethod(_adopt)

    def is_canonical(self) -> bool:
        seq = self.top_labels + self.bottom_labels
        return not self.circuit_pairs and seq == tuple(range(1, len(seq) + 1))

    @classmethod
    def from_spin(cls, d: SpinDiagram) -> LabeledDiagram:
        k = len(d.top_isolated)
        return cls(
            d.n,
            d.top_isolated,
            d.bottom_isolated,
            d.top_arcs,
            d.bottom_arcs,
            d.through,
            tuple(range(1, k + 1)),
            tuple(range(k + 1, k + 1 + len(d.bottom_isolated))),
        )

    def to_spin(self) -> SpinDiagram:
        if not self.is_canonical():
            raise DiagramError("labeled diagram is not in canonical order")
        return SpinDiagram(
            self.n,
            self.top_isolated,
            self.bottom_isolated,
            self.top_arcs,
            self.bottom_arcs,
            self.through,
        )


class AlgebraElement:
    """A finite formal sum of diagrams with coefficients in Z[delta]."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[SpinDiagram, DeltaPolynomial] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        table: dict[SpinDiagram, DeltaPolynomial] = {}
        for d, c in items:
            if d.n != n:
                raise DiagramError(f"term has n={d.n}, element has n={n}")
            s = table.get(d, DeltaPolynomial.zero()) + c
            if s:
                table[d] = s
            else:
                table.pop(d, None)
        self.n = n
        self._terms = table

    @classmethod
    def _wrap(cls, n: int, table: dict[SpinDiagram, DeltaPolynomial]) -> AlgebraElement:
        """Adopt a table of size-n diagrams with nonzero coefficients, unchecked."""
        out = cls.__new__(cls)
        out.n = n
        out._terms = table
        return out

    @classmethod
    def from_diagram(cls, d: SpinDiagram,
                     coeff: Union[DeltaPolynomial, int] = 1) -> AlgebraElement:
        if isinstance(coeff, int):
            coeff = DeltaPolynomial.constant(coeff)
        return cls(d.n, {d: coeff})

    @classmethod
    def zero(cls, n: int) -> AlgebraElement:
        return cls(n, {})

    @property
    def terms(self) -> dict[SpinDiagram, DeltaPolynomial]:
        return dict(self._terms)

    def coefficient(self, d: SpinDiagram) -> DeltaPolynomial:
        return self._terms.get(d, DeltaPolynomial.zero())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[SpinDiagram, DeltaPolynomial]]:
        return iter(sorted(self._terms.items(), key=lambda t: diagram_key(t[0])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if self.n != other.n:
            raise DiagramError("cannot add elements with different n")
        table = dict(self._terms)
        for d, c in other._terms.items():
            s = table.get(d, DeltaPolynomial.zero()) + c
            if s:
                table[d] = s
            else:
                table.pop(d, None)
        return AlgebraElement._wrap(self.n, table)

    def __neg__(self) -> AlgebraElement:
        return self.scale(DeltaPolynomial.constant(-1))

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def scale(self, c: Union[DeltaPolynomial, int]) -> AlgebraElement:
        if isinstance(c, int):
            c = DeltaPolynomial.constant(c)
        return AlgebraElement(self.n, {d: p * c for d, p in self._terms.items()})

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        from .multiply import multiply_elements

        return multiply_elements(self, other)

    def evaluate_at(self, N: int) -> AlgebraElement:
        """Substitute delta := N in every coefficient; drops vanished terms."""
        out: dict[SpinDiagram, DeltaPolynomial] = {}
        for d, c in self._terms.items():
            v = c.eval_at(N)
            if v:
                out[d] = DeltaPolynomial.constant(v)
        return AlgebraElement(self.n, out)

    def max_through(self) -> int:
        """Largest through-string count among the terms; -1 for zero."""
        return max((d.through_count for d in self._terms), default=-1)

    def to_json(self) -> dict:
        items = sorted(self._terms.items(), key=lambda t: diagram_key(t[0]))
        return {
            "terms": [
                {"coeff": c.to_pairs(), "diagram": emit_diagram(d)} for d, c in items
            ]
        }

    @classmethod
    def from_json(cls, obj: Union[str, Mapping], n: Union[int, None] = None) -> AlgebraElement:
        data = json.loads(obj) if isinstance(obj, str) else obj
        terms = []
        for t in data["terms"]:
            d = parse_diagram(t["diagram"])
            terms.append((d, DeltaPolynomial.from_pairs(t["coeff"])))
        if n is None:
            if not terms:
                raise DiagramError("cannot infer n of an empty element")
            n = terms[0][0].n
        return cls(n, terms)

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.n}, terms={len(self._terms)})"


def involution(d: SpinDiagram) -> SpinDiagram:
    """The row-swapping anti-automorphism: exchange rows and invert the bijection."""
    return SpinDiagram(
        d.n,
        d.bottom_isolated,
        d.top_isolated,
        d.bottom_arcs,
        d.top_arcs,
        tuple(sorted((j, i) for i, j in d.through)),
    )


# --- cell-triple encoding -------------------------------------------------

Block = tuple[int, ...]
Partition = tuple[Block, ...]


@dataclass(frozen=True)
class CellTriple:
    """Encoding of a diagram as (x, S) x (y, T) x sigma.

    x and y are the row partitions into singletons and arc pairs; S and T list
    the through-string singletons in ascending vertex order; sigma is the
    induced permutation (0-based images: S_i connects to T_{sigma[i]}).
    """

    x: Partition
    S: tuple[Block, ...]
    y: Partition
    T: tuple[Block, ...]
    sigma: tuple[int, ...]

    def __post_init__(self):
        ell = len(self.S)
        if len(self.T) != ell or sorted(self.sigma) != list(range(ell)):
            raise DiagramError("cell triple has inconsistent sizes")
        for blocks, part, name in ((self.S, self.x, "S"), (self.T, self.y, "T")):
            for b in blocks:
                if len(b) != 1 or b not in part:
                    raise DiagramError(f"{name} must list singleton blocks of the partition")
            if list(blocks) != sorted(blocks):
                raise DiagramError(f"{name} not sorted by vertex")

    # Adopt the fields, in order, unchecked. Only cell_encode builds triples
    # this way, from a validated diagram.
    _trusted = classmethod(_adopt)


def _row_partition(n: int, isolated: Sequence[int], arcs: Sequence[Arc],
                   through_row: Sequence[int]) -> tuple[Partition, tuple[Block, ...]]:
    blocks = [(v,) for v in isolated] + [tuple(a) for a in arcs]
    origins = tuple((v,) for v in sorted(through_row))
    blocks.extend(origins)
    return tuple(sorted(blocks)), origins


def cell_encode(d: SpinDiagram) -> tuple[int, CellTriple]:
    """Encode a diagram as its through count and cell triple."""
    tops = [i for i, _ in d.through]
    bots = [j for _, j in d.through]
    x, S = _row_partition(d.n, d.top_isolated, d.top_arcs, tops)
    y, T = _row_partition(d.n, d.bottom_isolated, d.bottom_arcs, bots)
    fmap = d.through_map()
    t_index = {b[0]: i for i, b in enumerate(T)}
    sigma = tuple(t_index[fmap[b[0]]] for b in S)
    return len(d.through), CellTriple._trusted(x, S, y, T, sigma)


def cell_decode(ell: int, t: CellTriple) -> SpinDiagram:
    """Inverse of cell_encode."""
    if len(t.S) != ell:
        raise DiagramError(f"triple has {len(t.S)} through origins, expected {ell}")
    n = sum(len(b) for b in t.x)
    if n != sum(len(b) for b in t.y):
        raise DiagramError("x and y partition different ground sets")
    top_iso, top_arcs = _row_of(t.x, t.S)
    bot_iso, bot_arcs = _row_of(t.y, t.T)
    through = tuple((t.S[i][0], t.T[t.sigma[i]][0]) for i in range(ell))
    return SpinDiagram(n, top_iso, bot_iso, top_arcs, bot_arcs, through)


def _row_of(part: Partition,
            origins: tuple[Block, ...]) -> tuple[tuple[int, ...], tuple[Arc, ...]]:
    """A row's isolated vertices (the singletons of part not in origins)
    and its arcs, both in canonical order when part is sorted."""
    chosen = set(origins)
    return (tuple(b[0] for b in part if len(b) == 1 and b not in chosen),
            tuple(b for b in part if len(b) == 2))


# --- basis enumeration ------------------------------------------------------


def enumerate_size_le2_partitions(n: int) -> list[Partition]:
    """All partitions of {1..n} into blocks of size 1 or 2 (count = involution numbers)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > _PARTITION_BOUND:
        raise ValueError(f"n={n} exceeds bound {_PARTITION_BOUND}")

    def rec(verts: tuple[int, ...]) -> Iterator[tuple[Block, ...]]:
        if not verts:
            yield ()
            return
        v, rest = verts[0], verts[1:]
        for tail in rec(rest):
            yield ((v,),) + tail
        for k, w in enumerate(rest):
            for tail in rec(rest[:k] + rest[k + 1:]):
                yield ((v, w),) + tail

    return [tuple(sorted(p)) for p in rec(tuple(range(1, n + 1)))]


def singletons(p: Partition) -> tuple[Block, ...]:
    return tuple(b for b in p if len(b) == 1)


def enumerate_S(n: int, ell: int) -> list[tuple[Partition, tuple[Block, ...]]]:
    """All (partition, S) pairs with S an ell-subset of the singletons."""
    if not 0 <= ell <= n:
        return []
    out = []
    for p in enumerate_size_le2_partitions(n):
        sing = singletons(p)
        if len(sing) < ell:
            continue
        for S in itertools.combinations(sing, ell):
            out.append((p, S))
    return out


def enumerate_basis(n: int, bound: int = DEFAULT_ENUMERATION_BOUND) -> list[SpinDiagram]:
    """Every diagram on n+n vertices exactly once, in a deterministic order.

    Order: through count descending, then lexicographically by the cell
    encoding (x, S, y, T, sigma).
    """
    if n < 0:
        raise DiagramError("n must be nonnegative")
    if n > bound:
        raise DiagramError(f"n={n} exceeds enumeration bound {bound}")
    out: list[SpinDiagram] = []
    trusted = SpinDiagram._trusted
    for ell in range(n, -1, -1):
        # Each row decoded once per (x, S), as cell_decode would decode it.
        rows = [(*_row_of(x, S), tuple(b[0] for b in S))
                for x, S in sorted(enumerate_S(n, ell))]
        sigmas = list(itertools.permutations(range(ell)))
        for top_iso, top_arcs, tops in rows:
            for bot_iso, bot_arcs, bots in rows:
                for sigma in sigmas:
                    through = tuple(zip(tops, [bots[k] for k in sigma]))
                    out.append(trusted(n, top_iso, bot_iso, top_arcs, bot_arcs, through))
    return out


# --- pretty printing --------------------------------------------------------

_SUPERSCRIPTS = "⁰¹²³⁴⁵⁶⁷⁸⁹"
_SUBSCRIPTS = "₀₁₂₃₄₅₆₇₈₉"


def _marker(label: int, chars: str) -> str:
    return "⊙" + "".join(chars[int(c)] for c in str(label))


def pretty(d: SpinDiagram) -> str:
    """Two-row text rendering with labeled isolated-vertex markers."""
    top = {}
    for pos, v in enumerate(d.top_isolated, start=1):
        top[v] = _marker(pos, _SUPERSCRIPTS)
    bottom = {}
    for pos, v in enumerate(d.bottom_isolated, start=1):
        bottom[v] = _marker(pos, _SUBSCRIPTS)
    top_row = "  ".join(top.get(v, "●").ljust(2) for v in range(1, d.n + 1))
    bot_row = "  ".join(bottom.get(v, "●").ljust(2) for v in range(1, d.n + 1))
    lines = [top_row.rstrip(), bot_row.rstrip()]
    if d.top_arcs:
        lines.append("top arcs: " + " ".join(f"({a},{b})" for a, b in d.top_arcs))
    if d.bottom_arcs:
        lines.append("bottom arcs: " + " ".join(f"({a},{b})" for a, b in d.bottom_arcs))
    if d.through:
        lines.append("through: " + " ".join(f"{i}->{j}'" for i, j in d.through))
    return "\n".join(lines)
