#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 bench/selfcheck.py --workload threshold --seed 1 --other-seed 2 --seconds 5

Runs bench/run.py traced twice with one seed and requires identical counts:
attempted, found_frac, every fail.* count, B_z, |Y'|, |D|, the embed_v2
calls and every other count.  Then runs it with another seed, untraced and
traced, and requires a correct result from both.  Every run's metric names
and units must be the ones BENCHMARK.json declares.  Exits 0 when all holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(args, seed: int, trace: int, out: Path) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if not line["correct"] or got != want:
        sys.exit(f"FAIL: seed {seed} trace {trace}: correct={line['correct']}, metrics differ from "
                 f"BENCHMARK.json: {sorted(set(got) ^ set(want)) or 'units'}")
    return json.loads(out.read_text())


def counts(result: dict) -> dict:
    """Everything in a traced result that must repeat exactly for one seed."""
    out = {
        "attempted": result["attempted"],
        "found_frac": result["end_to_end"]["found_frac"],
        "fails": result["fails"],
    }
    out.update({k: v for k, v in result["per_layer"].items() if not k.endswith("_s") and k != "trace.overhead"})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()

    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_parent) as tmp:
        tmp = Path(tmp)
        a = counts(run(args, args.seed, 1, tmp / "a.json"))
        b = counts(run(args, args.seed, 1, tmp / "b.json"))
        if a != b:
            diff = {k: (a.get(k), b.get(k)) for k in a.keys() | b.keys() if a.get(k) != b.get(k)}
            sys.exit(f"FAIL: two traced runs with seed {args.seed} differ: {diff}")
        run(args, args.other_seed, 0, tmp / "c.json")
        run(args, args.other_seed, 1, tmp / "d.json")
    if not any(tmp_parent.iterdir()):
        tmp_parent.rmdir()
    print(f"ok: {args.workload}: {len(a)} counts repeat exactly for seed {args.seed}; "
          f"seed {args.other_seed} passes every check, untraced and traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
