"""Benchmark of the spinbrauer package: one workload per run, in-process.

    python3 perfbench/run.py --workload products --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from ./src. The
workload's round (a fixed list of items from --seed) is solved one item
after another and repeated for about --seconds; solve_s is the median
round. Every time reported is scaled to a reference host speed (see
pace()). Every round's outputs must equal the first round's, and the first
round's outputs are checked for correctness outside the timed region.

With --trace 0 the end-to-end metrics are printed; with --trace 1 untraced
rounds alternate with rounds in which every layer is wrapped, and the
per-layer metrics are printed. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 1 when an
output check failed and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import layers
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
SETUPS = 9  # set-up repetitions; setup_s is their median
# Seconds that one pass of pace() takes on the reference host. Every time the
# benchmark reports is scaled to a host of this speed.
REFERENCE_PACE_S = 0.01
STRETCH_S = 0.05  # a round is timed in stretches of items at least this long
WORKLOAD_NAMES = ("products", "isolated", "homomorphism", "rank")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Failure:
    """Output of an item that raised."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"


def _own_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name.split(".")[0] in ("spinbrauer", "workloads", "gen")}


def pace() -> float:
    """Seconds taken by one pass of a fixed loop of dict, tuple and Fraction
    work that uses no spinbrauer code: the speed of the host right now.

    The development host's speed swings by a third or more, in bursts of a
    fraction of a second and in phases of minutes, so the wall time of a
    round varies by as much. Each stretch of work is timed between two
    passes of this loop and scaled by REFERENCE_PACE_S over their mean,
    which cancels most of that swing; a change to spinbrauer cannot change
    the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    counts, total = {}, Fraction(0)
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
        total += Fraction(i % 7 + 1, i % 11 + 1)
    sorted(counts.items())
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def fresh_setup(name: str, seed: int):
    """Import the package and the workload afresh and build the workload's inputs.

    Returns (seconds, workload). Modules imported by an earlier set-up are
    put back afterwards, so that the workload already in use, and the tracer
    that wraps its functions, keep seeing one and the same package.
    """
    earlier = _own_modules()
    for module in earlier:
        del sys.modules[module]
    start = perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](seed)
    elapsed = perf_counter() - start
    if earlier:
        for module in _own_modules():
            del sys.modules[module]
        sys.modules.update(earlier)
    return elapsed, workload


class Meter:
    """Times a round in stretches of items, each between two passes of pace().

    After a round, wall is the wall time of its items, scaled that time with
    each stretch scaled to the reference host, and paced the wall time the
    round spent in pace() between its stretches.
    """

    def __init__(self):
        self.before = pace()
        self.wall = self.scaled = self.paced = 0.0
        self.stretch = 0.0

    def start(self) -> None:
        self.wall = self.scaled = self.paced = 0.0
        self.stretch = perf_counter()

    def tick(self) -> None:
        """After each item: ends the stretch once it is STRETCH_S long."""
        if perf_counter() - self.stretch >= STRETCH_S:
            self.end_stretch()

    def end_stretch(self) -> None:
        end = perf_counter()
        elapsed = end - self.stretch
        after = pace()
        self.wall += elapsed
        self.scaled += elapsed * 2 * REFERENCE_PACE_S / (self.before + after)
        self.before = after
        self.stretch = perf_counter()
        self.paced += self.stretch - end


def solve_round(workload, meter: Meter) -> list:
    """Solve every item once, one after another; returns their outputs."""
    outputs = []
    meter.start()
    for item in workload.items:
        try:
            outputs.append(workload.solve(item))
        except Exception as exc:  # an item that raises counts as failed
            outputs.append(Failure(exc))
        meter.tick()
    meter.end_stretch()
    return outputs


class Runner:
    """Repeats a workload's round and keeps what the checks need.

    The first round's outputs are checked as soon as it has ended, outside
    its timing; only the canonical text of each output is kept after that,
    to compare later rounds with, so that the memory a round leaves behind
    does not add to the next round's peak.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference = None  # canonical text of each output of the first round
        self.count = 0  # rounds run
        self.failed = 0  # items that failed, weighted

    def rounds(self, deadline: float, solvers=(solve_round,)) -> list[list[tuple]]:
        """Run rounds until perf_counter() reaches deadline, taking the solvers
        in turn.

        solve(workload, meter) runs one round and returns its outputs. Every
        solver runs at least once. Returns, for each solver, the meter's
        (wall, scaled, paced) of each of its rounds.
        """
        times = [[] for _ in solvers]
        meter = Meter()
        while not times[0] or perf_counter() < deadline:
            for k, solve in enumerate(solvers):
                gc.collect()
                outputs = solve(self.workload, meter)
                times[k].append((meter.wall, meter.scaled, meter.paced))
                self._keep(outputs)
                del outputs
        return times

    def _keep(self, outputs) -> None:
        """Check the first round's items; count later items that differ."""
        self.count += 1
        wl = self.workload
        got = [json.dumps({"error": o.text} if isinstance(o, Failure) else wl.canonical(o),
                          sort_keys=True, separators=(",", ":"))
               for o in outputs]
        if self.reference is not None:
            self.failed += sum(w for w, a, b in zip(wl.weights, got, self.reference) if a != b)
            return
        self.reference = got
        for index, (item, output, weight) in enumerate(zip(wl.items, outputs, wl.weights)):
            try:
                ok = not isinstance(output, Failure) and wl.check(index, item, output)
            except Exception:  # a check that raises counts as failed
                ok = False
            self.failed += 0 if ok else weight

    def digest(self) -> str:
        """SHA-256 of the canonical JSON list of the first round's outputs."""
        text = "[" + ",".join(self.reference) + "]"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pin_to_one_cpu() -> None:
    """Keep the process on the highest-numbered CPU it may use.

    On the development host, six unpinned runs of the rank workload spread
    by 38 % and six pinned ones by 7 %."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_to_one_cpu()
    solvers = (solve_round,)
    if trace:
        tracer = Tracer()
        traced_round = tracer.round_of(solve_round)

        def solve_traced(workload, meter):
            layers.instrument(tracer)
            try:
                return traced_round(workload, meter)
            finally:
                tracer.uninstall()

        # Untraced and traced rounds alternate, so that both see the same
        # phases of the host's speed.
        solvers = (solve_round, solve_traced)

    # The set-ups are spread over the run, each followed by a share of the
    # rounds. The first set-up's workload is the one whose rounds run.
    setup_times, enumerate_times = [], []
    plain, traced = [], []
    runner = None
    start = perf_counter()
    for k in range(SETUPS):
        before = pace()
        elapsed, workload = fresh_setup(name, seed)
        scale = 2 * REFERENCE_PACE_S / (before + pace())
        setup_times.append(elapsed * scale)
        enumerate_times.append(workload.enumerate_s * scale)
        runner = runner or Runner(workload)
        times = runner.rounds(start + seconds * (k + 1) / SETUPS, solvers)
        plain += times[0]
        traced += times[-1]
    workload = runner.workload
    wall = [w for w, _, _ in plain]
    solve_s = statistics.median(scaled for _, scaled, _ in plain)

    if trace:
        metrics = layers.per_layer(tracer, traced,
                                   statistics.median(enumerate_times), solve_s)
        units = layers.METRICS
        consistent = all(c == tracer.round_counts[0] for c in tracer.round_counts)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}.jsonl")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": solve_s,
            "items_per_s": sum(workload.weights) / solve_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        consistent = True

    attempted = sum(workload.weights) * runner.count
    failed = runner.failed
    digest = runner.digest()
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    stored = expected.get("digests", {}).get(name)
    digest_ok = seed != DEFAULT_SEED or stored is None or stored == digest
    correct = failed == 0 and digest_ok and consistent

    print(f"workload {name} seed {seed} rounds {runner.count} "
          f"items/round {sum(workload.weights)}")
    print(f"digest {name} {digest}" + ("" if digest_ok else " (differs from stored)"))
    print(f"wall-clock rounds: median {statistics.median(wall):.6g} s, "
          f"fastest {min(wall):.6g} s, slowest {max(wall):.6g} s")
    if not trace:
        print(f"failed_ratio {failed / attempted:.6g} ratio")
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinbrauer" / "__init__.py").is_file():
        print(f"no spinbrauer package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
