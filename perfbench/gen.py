"""Seeded input generators for the benchmark workloads.

Every diagram is built through the SpinDiagram constructor, so each generated
input passes the package's own validation before any workload sees it.
"""

from __future__ import annotations

import random

from spinbrauer import multiply
from spinbrauer.diagrams import SpinDiagram

# Products of diagrams with many isolated vertices grow about ninefold per
# extra isolated vertex; larger rows do not fit in a run of seconds.
MAX_ISOLATED_N = 7


def check_isolated_sizes(sizes) -> None:
    """Refuse row sizes the isolated generator does not support."""
    for n in sizes:
        if not 1 <= n <= MAX_ISOLATED_N:
            raise ValueError(f"isolated generator supports 1 <= n <= {MAX_ISOLATED_N}, got {n}")


def all_isolated(n: int) -> SpinDiagram:
    """The diagram whose 2n vertices are all isolated."""
    check_isolated_sizes([n])
    row = tuple(range(1, n + 1))
    return SpinDiagram(n, row, row, (), (), ())


def random_isolated(rng: random.Random, n: int, p: float) -> SpinDiagram:
    """A diagram on n + n vertices, each vertex isolated with probability p.

    The vertices left over on both rows are split into through strings and
    arcs uniformly among the counts that the row parities allow.
    """
    check_isolated_sizes([n])
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"isolation probability {p} outside [0, 1]")
    while True:
        top_iso = [v for v in range(1, n + 1) if rng.random() < p]
        bottom_iso = [v for v in range(1, n + 1) if rng.random() < p]
        if len(top_iso) % 2 == len(bottom_iso) % 2:
            break
    top_rest = [v for v in range(1, n + 1) if v not in top_iso]
    bottom_rest = [v for v in range(1, n + 1) if v not in bottom_iso]
    rng.shuffle(top_rest)
    rng.shuffle(bottom_rest)
    through = rng.choice([
        t for t in range(min(len(top_rest), len(bottom_rest)) + 1)
        if (len(top_rest) - t) % 2 == 0
    ])
    top_free, bottom_free = top_rest[through:], bottom_rest[through:]
    return SpinDiagram(
        n,
        tuple(top_iso),
        tuple(bottom_iso),
        tuple(zip(top_free[::2], top_free[1::2])),
        tuple(zip(bottom_free[::2], bottom_free[1::2])),
        tuple(zip(top_rest[:through], bottom_rest[:through])),
    )


def normal_form_potential(top: SpinDiagram, bottom: SpinDiagram) -> int:
    """Row-label inversions plus circuit-pair gaps of the stacked intermediate.

    The cost of the normal form grows about 1.3-fold per unit of it (measured
    on random products at n = 6 and 7), so it serves as a difficulty class.
    """
    resolved = multiply.stitch_and_resolve(top, bottom).resolved
    labels = resolved.top_labels + resolved.bottom_labels
    inversions = sum(
        1 for i, a in enumerate(labels) for b in labels[i + 1:] if a > b
    )
    return inversions + sum(b - a - 1 for a, b in resolved.circuit_pairs)


def stratified_pairs(draw, quotas: dict[int, int], draws: int, cap=None) -> list:
    """Pairs from draw(), quotas[v] of them at each normal-form potential v,
    in ascending potential order; potentials above cap count as cap.

    Exactly `draws` pairs are drawn whatever the seed, so that generating
    the inputs takes about the same time for every seed.
    """
    found: dict[int, list] = {v: [] for v in quotas}
    for _ in range(draws):
        pair = draw()
        v = normal_form_potential(*pair)
        if cap is not None:
            v = min(cap, v)
        if v in found and len(found[v]) < quotas[v]:
            found[v].append(pair)
    short = sorted(v for v in quotas if len(found[v]) < quotas[v])
    if short:
        raise RuntimeError(f"{draws} draws did not fill potentials {short}")
    return [pair for v in sorted(quotas) for pair in found[v]]
