"""The names and fields of spinbrauer that the benchmark under perfbench/ reads.

The benchmark wraps public functions by name and reads fields of their
results; a change under src/ that drops one should fail here, not only when
the benchmark runs.
"""

import sys
from pathlib import Path

from spinbrauer import multiply, verify
from spinbrauer.diagrams import enumerate_basis
from spinbrauer.realization import SpaceSpec, realize_diagram

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_products_and_potentials(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("gen", "layers", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import gen
    import layers
    import tracer as tracing

    basis = enumerate_basis(3)
    pairs = list(zip(basis[::7], basis[3::7]))

    def solve():
        potentials = [gen.normal_form_potential(a, b) for a, b in pairs]
        return potentials, [len(multiply.multiply_diagrams(a, b)) for a, b in pairs]

    original = multiply.stitch_and_resolve
    t = tracing.Tracer()
    layers.instrument(t)
    try:
        potentials, sizes = t.round_of(solve)()
    finally:
        t.uninstall()
    assert multiply.stitch_and_resolve is original
    assert all(p >= 0 for p in potentials) and max(potentials) > 0
    counts = t.round_counts[0]
    # Each product stitches and normalizes once, through the module names.
    assert counts["multiply.stitch.calls"] == 2 * len(pairs)
    assert counts["multiply.normalize.calls"] == len(pairs)
    assert counts["multiply.product.calls"] == len(pairs)
    assert counts["multiply.output_terms"] == sum(sizes)
    # The normal form's work on these pairs, pinned so that a change under
    # src/ that alters it fails here and not only in the benchmark.
    assert counts["multiply.nf_labels"] == 60
    assert counts["multiply.output_terms"] == 23


def test_traced_rank_block_and_exact_paths(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    import tracer as tracing

    space = SpaceSpec(6, 2)
    full_nnz = sum(realize_diagram(d, space).nnz() for d in enumerate_basis(2))
    t = tracing.Tracer()
    layers.instrument(t)
    try:
        certified = t.round_of(lambda: verify.verify_rank(2, 6))()
        exact = t.round_of(lambda: verify.verify_rank(3, 2))()
    finally:
        t.uninstall()
    assert certified.info["rank"] == 10 and exact.info["rank"] == 20
    blocks, eliminated = t.round_counts
    # Full rank at (2, 6) is certified on the block columns of the ten diagrams,
    # seen by the realization hook, holding fewer entries than the whole maps.
    assert blocks["realization.realize.calls"] == 10
    assert 0 < blocks["realization.realized_nnz"] < full_nnz
    assert blocks["linalg.flatten.calls"] == blocks["linalg.rank.calls"] == 0
    # Below N = 2n every map is realized on its Fock-mask-0 columns, flattened
    # and eliminated.
    assert eliminated["realization.realize.calls"] == 76
    assert eliminated["linalg.flatten.calls"] == 76
    assert eliminated["linalg.rank.calls"] == 1
    assert eliminated["linalg.rank_pivots"] == 20
