"""Which public functions of spinbrauer are traced, and the per-layer metrics.

Layers are the package modules. scalars is not wrapped: its calls number in
the millions inside linalg and multiply, so its cost stays inside
linalg.combine_s and multiply.normalize_s. cli is not wrapped either: it only
parses arguments and emits JSON.
"""

from __future__ import annotations

import statistics
from collections import Counter

LAYERS = ("diagrams", "multiply", "cellular", "realization", "linalg", "verify",
          "bench", "trace")

# name -> unit, in the order they are printed. Times ending in _s are seconds
# of self time in the median traced round unless said otherwise, scaled to
# the reference host like every time; counts are per round.
METRICS = {
    "diagrams.enumerate_s": "s",  # enumerate_basis during set-up, not per round
    "diagrams.evaluate_s": "s",
    "multiply.stitch_s": "s",
    "multiply.normalize_s": "s",
    "multiply.product_p50_ms": "ms",
    "multiply.product_p90_ms": "ms",
    "multiply.products": "count",
    "multiply.nf_labels": "count",
    "multiply.output_terms": "count",
    "cellular.leading_s": "s",
    "cellular.predictions": "count",
    "cellular.form_errors": "count",
    "realization.realize_s": "s",
    "realization.realize_calls": "count",
    "realization.realized_nnz": "count",
    "linalg.combine_s": "s",
    "linalg.compose_s": "s",
    "linalg.compose_madds": "count",
    "linalg.equal_s": "s",
    "linalg.flatten_s": "s",
    "linalg.rank_s": "s",
    "linalg.rank_input_nnz": "count",
    "linalg.rank_pivots": "count",
    "verify.check_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.solve_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Count metrics whose counter the tracer keeps under another key.
COUNTER_KEYS = {
    "multiply.products": "multiply.product.calls",
    "cellular.predictions": "cellular.leading.calls",
    "cellular.form_errors": "cellular.leading.errors",
    "realization.realize_calls": "realization.realize.calls",
}
COUNTS = {name: COUNTER_KEYS.get(name, name)
          for name, unit in METRICS.items() if unit == "count"}


def _product(counts, result, *args):
    counts["multiply.output_terms"] += len(result)


def _stitch(counts, result, *args):
    r = result.resolved
    counts["multiply.nf_labels"] += (
        len(r.top_labels) + len(r.bottom_labels) + 2 * len(r.circuit_pairs))


def _realize(counts, result, *args):
    counts["realization.realized_nnz"] += result.nnz()


def _compose(counts, result, left, right):
    # left o right: each entry (k, j) of right meets every entry of column k of left.
    per_column = Counter(col for _, col, _ in left.entries())
    counts["linalg.compose_madds"] += sum(per_column[row] for row, _, _ in right.entries())


def _rank(counts, result, vectors):
    counts["linalg.rank_input_nnz"] += sum(len(v) for v in vectors)
    counts["linalg.rank_pivots"] += result


def instrument(tracer) -> None:
    """Wrap each traced function where its callers look it up."""
    from spinbrauer import cellular, diagrams, linalg, multiply, realization, verify

    for module in (multiply, verify):
        tracer.wrap(module, "multiply_diagrams", "multiply.product", _product)
    tracer.wrap(multiply, "stitch_and_resolve", "multiply.stitch", _stitch)
    tracer.wrap(multiply, "clifford_normalize", "multiply.normalize")
    # The reference product inside the prediction counts as cellular work.
    tracer.wrap(cellular, "predicted_leading_term", "cellular.leading", opaque=True)
    tracer.wrap(diagrams.AlgebraElement, "evaluate_at", "diagrams.evaluate")
    tracer.wrap(verify, "enumerate_basis", "diagrams.enumerate")
    for module in (realization, verify):
        tracer.wrap(module, "realize_diagram", "realization.realize", _realize)
    LinearMap = linalg.LinearMap
    tracer.wrap(LinearMap, "scale", "linalg.combine")
    tracer.wrap(LinearMap, "__add__", "linalg.combine")
    tracer.wrap(LinearMap, "compose", "linalg.compose", _compose)
    tracer.wrap(LinearMap, "__eq__", "linalg.equal")
    tracer.wrap(LinearMap, "flatten", "linalg.flatten")
    for module in (linalg, verify):
        tracer.wrap(module, "rank_of_vectors", "linalg.rank", _rank)
    for check in ("verify_homomorphism", "verify_rank"):
        tracer.wrap(verify, check, "verify.check")


def per_layer(tracer, rounds: list[tuple], enumerate_s: float, plain_s: float) -> dict:
    """Per-layer metrics from the spans of the median traced round.

    rounds[k] is the meter's (wall, scaled, paced) of traced round k; plain_s
    is the median untraced round, scaled to the reference host. Span times
    are scaled by the round's scaled over wall time. The round spent paced
    seconds timing the host's speed, which is taken out of bench.self_s.
    """
    scaled = [s for _, s, _ in rounds]
    run = scaled.index(statistics.median_low(scaled))
    wall, solve_s, paced = rounds[run]
    scale = solve_s / wall
    self_time = tracer.self_times(run)
    self_time["bench.round"] -= paced

    def own(name):
        return scale * self_time.get(name, 0.0)

    products = sorted(scale * t for t in tracer.durations("multiply.product", run))
    out = {
        "diagrams.enumerate_s": enumerate_s,
        "diagrams.evaluate_s": own("diagrams.evaluate"),
        "multiply.stitch_s": own("multiply.stitch"),
        "multiply.normalize_s": own("multiply.normalize"),
        "multiply.product_p50_ms": 1e3 * _quantile(products, 0.5),
        "multiply.product_p90_ms": 1e3 * _quantile(products, 0.9),
        "cellular.leading_s": own("cellular.leading"),
        "realization.realize_s": own("realization.realize"),
        "linalg.combine_s": own("linalg.combine"),
        "linalg.compose_s": own("linalg.compose"),
        "linalg.equal_s": own("linalg.equal"),
        "linalg.flatten_s": own("linalg.flatten"),
        "linalg.rank_s": own("linalg.rank"),
        "verify.check_s": scale * sum(tracer.durations("verify.check", run)),
        "trace.solve_s": solve_s,
        "trace.overhead_ratio": solve_s / plain_s - 1,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = scale * sum(
            t for name, t in self_time.items() if name.split(".")[0] == layer)
    for name, key in COUNTS.items():
        out[name] = tracer.round_counts[run][key]
    return {name: out[name] for name in METRICS}


def _quantile(values: list[float], q: float) -> float:
    """The q-quantile of sorted values by the nearest-rank rule; 0 if empty."""
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]
