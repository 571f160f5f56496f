"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload traced, twice with seed 0 and once with seed 1,
each in its own process (so string hashing differs between runs). Two runs
with the same seed must print identical output digests and work counters; a
different seed must change the digest of every seeded workload. Exits 1 if
any of this fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 0  # run.py's default seed, whose digests expected.json stores
SEEDED = ("products", "isolated", "homomorphism")
UNSEEDED = ("rank",)


def traced_run(workload: str, seed: int) -> tuple[str, dict]:
    """(digest, counters) of one short traced run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    digest = next(line.split()[2] for line in lines if line.startswith("digest "))
    metrics = json.loads(lines[-1])["metrics"]
    counters = {m: v["value"] for m, v in metrics.items() if v["unit"] == "count"}
    return digest, counters


def main() -> int:
    ok = True
    for workload in SEEDED + UNSEEDED:
        first = traced_run(workload, SEED)
        again = traced_run(workload, SEED)
        other = traced_run(workload, SEED + 1)
        same = first == again
        changed = first[0] != other[0]
        good = same and changed == (workload in SEEDED)
        ok &= good
        print(f"{workload}: same seed identical {same}, next seed changes digest "
              f"{changed} -> {'ok' if good else 'FAIL'}")
        print(f"  digest {first[0]}")
        print(f"  counters {json.dumps(first[1], sort_keys=True)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
