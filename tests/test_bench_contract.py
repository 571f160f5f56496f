"""The names and fields of spinbrauer that the benchmark under perfbench/ reads.

The benchmark wraps public functions by name and reads fields of their
results; a change under src/ that drops one should fail here, not only when
the benchmark runs.
"""

import hashlib
import json
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


def test_traced_homomorphism_work(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("layers", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    import tracer as tracing

    t = tracing.Tracer()
    layers.instrument(t)
    try:
        report = t.round_of(lambda: verify.verify_homomorphism(3, 5, "random", 2, 0))()
    finally:
        t.uninstall()
    assert report.passed
    counts = t.round_counts[0]
    # The realizations, composites and comparisons of two pairs, through the
    # names the tracer wraps; pinned so that a change under src/ that alters
    # the work fails here and not only in the benchmark. The product terms
    # and top factors are realized on the mode-permutation orbit columns of
    # the kept V-weight, the bottom factors only on the rows their top
    # factors reach: one diagram of the two pairs is realized both ways.
    assert counts["realization.realize.calls"] == 7
    assert counts["realization.realized_nnz"] == 149
    assert counts["linalg.compose.calls"] == 2
    assert counts["linalg.compose_madds"] == 65
    assert counts["linalg.equal.calls"] == 2


def test_normal_form_potentials_at_three(monkeypatch):
    # products and isolated choose their inputs by this potential, read from
    # the stitched labels; a wrong label would change their seed-0 inputs.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "gen", raising=False)
    import gen

    basis = enumerate_basis(3)
    potentials = [gen.normal_form_potential(a, b) for a in basis for b in basis]
    assert len(potentials) == 5776
    assert hashlib.sha256(repr(potentials).encode()).hexdigest() == (
        "5c991fd80b4ad78c38acc4b6a51f4155ec2e69c5cbf90dd16cac8a2cfb3dfd27")


def test_seed_zero_answers_match_the_stored_digests(monkeypatch):
    # One round of each workload, solved and checked the way run.py does it:
    # a name the benchmark reads that goes missing shows here as a failed
    # item or a changed digest.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("gen", "layers", "tracer", "workloads", "run"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run
    import workloads

    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    for name, workload in workloads.WORKLOADS.items():
        runner = run.Runner(workload(run.DEFAULT_SEED))
        runner.rounds(deadline=0.0)  # a single round
        assert (name, runner.count, runner.failed) == (name, 1, 0)
        assert runner.digest() == expected["digests"][name], name
