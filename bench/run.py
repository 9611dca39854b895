#!/usr/bin/env python3
"""Seeded find/verify benchmark for homeofind.

    python3 bench/run.py --workload dense-cli --seed 1 --seconds 20 --trace 0

Builds nothing: it imports homeofind from ``src/`` of the checkout it sits
in, generates every input from ``--seed``, runs the workload in this one
process and thread as a closed loop with one client, checks every output,
prints a report and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run repeats the
workload with spans recorded (see spans.py) and prints the per-layer ones.
Every end-to-end time is divided by the machine's speed, measured around it
with a fixed reference computation (see speed.py).  bench/README.md gives the
workloads, the metrics and what each layer should move.

Exit status: 0 on a result, 1 when an output is wrong or the program raised
anything but a PipelineError (a ``"correct": false`` line is printed), 2
when homeofind cannot be imported from ``src/`` (nothing is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from spans import HOOK_COUNTS, SPANS, NullTracer, Patches, Tracer, instrument
from speed import NoSpeed, Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
clock = time.perf_counter

# Set-up (import and up-front input generation) is repeated this many times
# and its median reported, so that setup_s is steady.
IMPORT_REPEATS = 11
SETUP_REPEATS = 3

# Work per run is fixed by --seconds through these per-instance costs,
# measured on a 2-core x86-64 machine under Python 3.11.  A fixed amount of
# work makes found_frac and every count exact across runs of one seed; on
# that machine a run measures for about --seconds.
DENSE_BLOCK_S = 18.0  # one pass over the eight dense-cli instances
THRESHOLD_HOST_S = 0.55  # one threshold host, both targets
SWEEP_TRIAL_S = 0.043  # one sweep trial, averaged over the three densities

END_TO_END = [
    ("instances_per_s", "1/s"),
    ("solve_s_p50", "s"),
    ("solve_s_tail", "s"),
    ("verify_s_p50", "s"),
    ("found_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Pipeline stages that a not-found answer can carry; any other stage is
# counted under fail.other.
STAGES = ["pick_link_vertex", "select_core_set", "find_complete_subgraph", "embed_v2", "assign_centers"]


def _calls_name(span: str) -> str:
    return "links.link_builds" if span == "links.HostIndex.link" else f"{span}_calls"


PER_LAYER = (
    [(f"{span}_s", "s") for span, _, _ in SPANS]
    + [(_calls_name(span), "count") for span, _, _ in SPANS]
    + [(name, "count") for name in HOOK_COUNTS]
    + [("embed.admissibility_violations", "count"), ("embed.placement_yield", "ratio")]
    + [(f"fail.{stage}", "count") for stage in STAGES]
    + [
        ("fail.embed_v2.collision", "count"),
        ("fail.embed_v2.admissibility", "count"),
        ("fail.embed_v2.empty_candidates", "count"),
        ("fail.other", "count"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead", "ratio"),
    ]
)


class BenchmarkError(Exception):
    """An output of the program is wrong, or it raised an unexpected error."""


def sub_seed(*parts) -> int:
    """A 64-bit seed for one input, independent of the program's own mixer."""
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:8], "big")


# -- the program ------------------------------------------------------------


def import_program():
    """Import homeofind from ``src/`` IMPORT_REPEATS times; (modules, median s)."""
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "homeofind" or m.startswith("homeofind.")]:
            del sys.modules[name]
        t0 = clock()
        importlib.import_module("homeofind")
        times.append(clock() - t0)
    pkg = sys.modules["homeofind"]
    if Path(pkg.__file__).resolve().parent != SRC / "homeofind":
        raise ImportError(f"homeofind imported from {pkg.__file__}, not from {SRC}")
    mods = {m: sys.modules[f"homeofind.{m}"] for m in ("core", "embed", "errors", "harness", "io", "links", "verify")}
    prog = SimpleNamespace(**mods, HostIndex=mods["links"].HostIndex)
    # Unpatched references for the benchmark's own checks, so that checking
    # an output never shows up in a traced layer.
    prog.check_parse_certificate = mods["io"].parse_certificate
    return prog, statistics.median(times)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over the program's source files, to name the code measured."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# -- one pass over a workload -----------------------------------------------


@dataclass
class Pass:
    """What one pass over a workload's instances measured."""

    solve: list[float] = field(default_factory=list)  # per instance
    verify: list[float] = field(default_factory=list)  # per found instance
    # (start, end) of the stretch of the run each solve and verify time is from
    solve_at: list[tuple[float, float]] = field(default_factory=list)
    verify_at: list[tuple[float, float]] = field(default_factory=list)
    gen_s: float = 0.0  # input generation done outside the measured time
    found: int = 0
    fails: Counter = field(default_factory=Counter)  # stage -> not-found answers
    outcomes: list = field(default_factory=list)  # per instance, for determinism checks

    @property
    def attempted(self) -> int:
        return len(self.solve)

    @property
    def wall(self) -> float:
        """Measured run time: solve and verify of every instance."""
        return sum(self.solve) + sum(self.verify)


def answer(out: Pass, tracer, speed, prog, solve, verify, key) -> None:
    """Time one instance: solve() to a certificate or a PipelineError, then
    verify(certificate); a rejected certificate aborts the run.  The machine's
    speed is sampled before each, outside the measured time."""
    speed.tick()
    t0 = clock()
    try:
        with tracer.span("bench.solve"):
            cert = solve()
    except prog.errors.PipelineError as exc:
        out.solve_at.append((t0, clock()))
        out.solve.append(out.solve_at[-1][1] - t0)
        out.fails[exc.stage] += 1
        out.outcomes.append(("not-found", exc.stage))
        return
    out.solve_at.append((t0, clock()))
    out.solve.append(out.solve_at[-1][1] - t0)
    speed.tick()
    t1 = clock()
    with tracer.span("bench.verify"):
        result = verify(cert)
    out.verify_at.append((t1, clock()))
    out.verify.append(out.verify_at[-1][1] - t1)
    if not result.passed:
        raise BenchmarkError(
            f"instance {len(out.solve) - 1}: verify_certificate rejected a returned "
            f"certificate at check {result.check}: {result.reason}"
        )
    out.found += 1
    out.outcomes.append(("found", key(cert)))


def desk_config(prog, target, *seed_parts):
    return prog.core.Config(C=2, k_threshold=3 * target.e, rng_seed=sub_seed(*seed_parts))


class DenseCli:
    """The path of ``homeofind find`` then ``homeofind verify``, in process."""

    name = "dense-cli"
    n = 60
    # The complete host and three hosts at p = 0.9.  The two densities take
    # clearly different times; with equal shares the medians would fall in
    # the gap between them and swing with the slowest fast and the fastest
    # slow instance.  With a 1:3 mix they fall inside the p = 0.9 group.
    densities = (1.0, 0.9, 0.9, 0.9)
    targets = ("triangle", "k4")

    def __init__(self, prog, seed: int, seconds: int):
        self.prog, self.seed = prog, seed
        blocks = max(1, round(seconds / DENSE_BLOCK_S))
        block = [(h, t) for h in range(len(self.densities)) for t in self.targets]
        self.plan = block * blocks

    def setup(self):
        """The host files' text, one per entry of ``densities``."""
        h = self.prog.harness
        return [
            self.prog.io.write_host(h.gen_random_host(self.n, self.n, self.n, p, sub_seed(self.name, self.seed, i)))
            for i, p in enumerate(self.densities)
        ]

    def run(self, inputs, tracer, speed) -> Pass:
        prog, io, embed, verify = self.prog, self.prog.io, self.prog.embed, self.prog.verify
        targets = {t: io.load_target(f"builtin:{t}") for t in self.targets}
        out = Pass()
        for i, (h, tname) in enumerate(self.plan):
            tracer.instance = i
            text, target = inputs[h], targets[tname]
            cfg = desk_config(prog, target, self.name, self.seed, h, tname)

            def solve():
                host = io.parse_host(text)
                return io.write_certificate(embed.find_homeomorph(host, target, cfg))

            def check(cert_text):
                host = io.parse_host(text)
                return verify.verify_certificate(io.parse_certificate(cert_text), host)

            answer(out, tracer, speed, prog, solve, check, key=lambda cert_text: cert_text)
        # Repeated instances are identical inputs and must give identical answers.
        first = {}
        for (h, tname), outcome in zip(self.plan, out.outcomes):
            if first.setdefault((h, tname), outcome) != outcome:
                raise BenchmarkError(f"dense-cli: host {h}, {tname} answered differently on a repeat")
        return out


class Threshold:
    """In-memory hosts near the density threshold of both targets."""

    name = "threshold"
    n = 40
    p_low, p_high = 0.45, 0.8
    targets = ("triangle", "k4")

    def __init__(self, prog, seed: int, seconds: int):
        self.prog, self.seed = prog, seed
        hosts = max(2, round(seconds / THRESHOLD_HOST_S))
        # One density per stratum of [p_low, p_high], jittered by the seed,
        # run in a seeded random order so that a slow spell of the machine
        # does not fall on one density range.
        rng = random.Random(sub_seed(self.name, seed, "p"))
        width = (self.p_high - self.p_low) / hosts
        self.plan = [(self.p_low + width * (i + rng.random()), sub_seed(self.name, seed, i)) for i in range(hosts)]
        rng.shuffle(self.plan)

    def setup(self):
        return None  # hosts are generated one at a time in run(): they are too big to hold at once

    def run(self, _inputs, tracer, speed) -> Pass:
        prog, embed, verify = self.prog, self.prog.embed, self.prog.verify
        targets = {t: prog.io.load_target(f"builtin:{t}") for t in self.targets}
        out = Pass()
        for h, (p, host_seed) in enumerate(self.plan):
            g0 = clock()
            with tracer.span("bench.setup"):
                host = prog.harness.gen_random_host(self.n, self.n, self.n, p, host_seed)
            out.gen_s += clock() - g0
            for j, tname in enumerate(self.targets):
                tracer.instance = 2 * h + j
                target = targets[tname]
                cfg = desk_config(prog, target, self.name, self.seed, h, tname)
                answer(
                    out, tracer, speed, prog,
                    solve=lambda: embed.find_homeomorph(host, target, cfg),
                    verify=lambda cert: verify.verify_certificate(cert, host),
                    key=lambda cert: cert.host_faces,
                )
        return out


class SweepProbe:
    """Marks trial boundaries inside run_sweep and checks its verify calls.

    run_sweep calls gen_random_host first in every trial, so a trial runs from
    one gen_random_host call to the next (the last to run_sweep's return).
    The machine's speed is sampled at each boundary, outside both trials.
    """

    def __init__(self, harness, tracer, speed, first: int):
        self.starts: list[float] = []
        self.ends: list[float] = []  # of the trial before each start
        self.verify_at: dict[int, tuple[float, float]] = {}
        self.certs: dict = {}
        self.patches = Patches()
        gen, verify = harness.gen_random_host, harness.verify_certificate

        def gen_probe(*args, **kwargs):
            tracer.instance = first + len(self.starts)
            self.ends.append(clock())
            speed.tick()
            self.starts.append(clock())
            return gen(*args, **kwargs)

        def verify_probe(cert, host):
            t0 = clock()
            result = verify(cert, host)
            trial = len(self.starts) - 1
            self.verify_at[trial] = (t0, clock())
            if not result.passed:
                raise BenchmarkError(
                    f"sweep trial {trial}: verify_certificate rejected a returned "
                    f"certificate at check {result.check}: {result.reason}"
                )
            self.certs[trial] = cert
            return result

        self.patches.set(harness, "gen_random_host", gen_probe)
        self.patches.set(harness, "verify_certificate", verify_probe)


class Sweep:
    """harness.run_sweep at n = 30 over three densities p = a n^(-1/5)."""

    name = "sweep"
    n = 30
    a_values = (Fraction(1, 5), Fraction(1, 2), Fraction(1))

    # Trials per run_sweep call.  The densities take turns in sweeps of this
    # size, so that a slow spell of the machine does not fall on one density.
    chunk = 20

    def __init__(self, prog, seed: int, seconds: int):
        self.prog = prog
        rounds = max(1, round(seconds / (len(self.a_values) * self.chunk * SWEEP_TRIAL_S)))
        self.specs = [
            prog.harness.SweepSpec(
                target="builtin:triangle", n_values=(self.n,), a=a, b=Fraction(1, 5),
                trials=self.chunk, seed=sub_seed(self.name, seed, r), cfg_overrides={"C": 2},
            )
            for r in range(rounds)
            for a in self.a_values
        ]

    def setup(self):
        return None  # run_sweep generates its hosts itself, inside the measured time

    def run(self, _inputs, tracer, speed) -> Pass:
        out = Pass()
        tmp_parent = ROOT / ".bench_tmp"
        tmp_parent.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=tmp_parent) as tmp:
                for k, spec in enumerate(self.specs):
                    self._run_one(out, tracer, speed, spec, Path(tmp) / f"a{k}")
        finally:
            if not any(tmp_parent.iterdir()):
                tmp_parent.rmdir()
        return out

    def _run_one(self, out: Pass, tracer, speed, spec, out_dir: Path) -> None:
        harness = self.prog.harness
        probe = SweepProbe(harness, tracer, speed, first=out.attempted)
        try:
            with tracer.span("bench.sweep"):
                rows = harness.run_sweep(spec, out_dir)
            end = clock()
        finally:
            probe.patches.restore()
        starts = probe.starts
        if len(starts) != spec.trials or len(rows) != 1:
            raise BenchmarkError(f"sweep ran {len(starts)} trials in {len(rows)} rows, expected {spec.trials} in 1")
        verify_s = {t: b - a for t, (a, b) in probe.verify_at.items()}
        for t, (a, b) in enumerate(zip(starts, probe.ends[1:] + [end])):
            out.solve_at.append((a, b))
            out.solve.append(b - a - verify_s.get(t, 0.0))
        for t in sorted(verify_s):
            out.verify_at.append(probe.verify_at[t])
            out.verify.append(verify_s[t])
        row = rows[0]
        out.found += row.successes
        out.fails.update(row.failure_stages)
        if row.successes != len(probe.certs):
            raise BenchmarkError(f"sweep row reports {row.successes} successes, {len(probe.certs)} verified")

        # The sweep's output: one certificate file per success, equal to the
        # certificate that passed verification, and the rows file.
        expected = {f"cert_n{self.n}_t{t}_s{spec.seed}.cert": cert for t, cert in probe.certs.items()}
        written = {p.name for p in out_dir.glob("*.cert")}
        if written != set(expected):
            raise BenchmarkError(f"sweep wrote {len(written)} certificate files, expected {len(expected)}")
        for name, cert in expected.items():
            if self.prog.check_parse_certificate((out_dir / name).read_text()) != cert:
                raise BenchmarkError(f"sweep certificate file {name} does not parse back to its certificate")
        if (out_dir / "rows.tsv").read_text().splitlines()[1] != row.serialize():
            raise BenchmarkError("sweep rows.tsv does not match the returned row")
        out.outcomes.append((row.successes, sorted(row.failure_stages.items()),
                             [expected[k].host_faces for k in sorted(expected)]))
        shutil.rmtree(out_dir)


WORKLOADS = {w.name: w for w in (DenseCli, Threshold, Sweep)}


# -- metrics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile with at
    least ten samples beyond it.  With fewer than 40 samples, a quarter of
    them (rounded down) beyond it instead, the sixth of eight: the maximum of
    a few samples swings with every slow moment of the machine."""
    s = sorted(values)
    k = len(s) - 1 - min(10, len(s) // 4)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def end_to_end(p: Pass, setup_s: float, speed: Speed | None) -> dict[str, float]:
    """The end-to-end metrics.  With a ``speed``, every solve and verify time
    is divided by the machine's speed factor where it was measured; without,
    it is as measured."""

    def scaled(times, spans):
        if speed is None:
            return times
        return [t / speed.factor_during(a, b) for t, (a, b) in zip(times, spans)]

    solve, verify = scaled(p.solve, p.solve_at), scaled(p.verify, p.verify_at)
    return {
        "instances_per_s": p.attempted / (sum(solve) + sum(verify)),
        "solve_s_p50": statistics.median(solve),
        "solve_s_tail": tail(solve)[0],
        "verify_s_p50": statistics.median(verify) if verify else 0.0,
        "found_frac": p.found / p.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def fail_counts(p: Pass, tracer: Tracer) -> dict[str, int]:
    out = {f"fail.{s}": p.fails.get(s, 0) for s in STAGES}
    out["fail.other"] = sum(n for s, n in p.fails.items() if s not in STAGES)
    left_find = {
        (origin, exc): n for (name, origin, exc), n in tracer.raised.items() if name == "embed.find_homeomorph"
    }
    out["fail.embed_v2.collision"] = left_find.get(("embed.embed_v2", "RetriesExhausted"), 0)
    out["fail.embed_v2.admissibility"] = left_find.get(("embed.find_homeomorph", "RetriesExhausted"), 0)
    out["fail.embed_v2.empty_candidates"] = left_find.get(("embed.embed_v2", "EmptyCandidateSet"), 0)
    return out


# The benchmark's own spans around the measured work of an instance.
ROOT_SPANS = ("bench.solve", "bench.verify", "bench.sweep")


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass) -> dict[str, float]:
    selfs = tracer.self_times()
    out: dict[str, float] = {}
    for span, _, _ in SPANS:
        s, calls = selfs.get(span, (0.0, 0))
        out[f"{span}_s"] = s
        out[_calls_name(span)] = calls
    out.update({name: tracer.counts[name] for name in HOOK_COUNTS})
    violations = tracer.raised[("embed.assign_centers", "embed.assign_centers", "AdmissibilityViolation")]
    out["embed.admissibility_violations"] = violations
    placements = selfs.get("embed.embed_v2", (0.0, 0))[1]
    admissible = selfs.get("embed.assign_centers", (0.0, 0))[1] - sum(
        n for (name, _, _), n in tracer.raised.items() if name == "embed.assign_centers"
    )
    out["embed.placement_yield"] = admissible / placements if placements else 0.0
    out.update(fail_counts(traced, tracer))
    out["trace.unattributed_s"] = sum(selfs.get(r, (0.0, 0))[0] for r in ROOT_SPANS)
    out["trace.overhead"] = traced.wall / untraced.wall - 1.0
    return out


# -- driver -----------------------------------------------------------------


def measure(args, prog, import_s: float) -> dict:
    workload = WORKLOADS[args.workload](prog, args.seed, args.seconds)
    speed = Speed()
    setup_times, inputs = [], None
    setup_start = clock()
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous set before making the next
        t0 = clock()
        inputs = workload.setup()
        setup_times.append(clock() - t0)
        speed.tick()
    setup_end = clock()
    untraced = workload.run(inputs, NullTracer(), speed)
    result = {
        "attempted": untraced.attempted,
        "found": untraced.found,
        "fails": dict(sorted(untraced.fails.items())),
        "wall_s": untraced.wall,
        "setup": {"import_s": import_s, "inputs_s": statistics.median(setup_times), "generation_in_run_s": untraced.gen_s},
        "tail": dict(zip(("value", "percentile", "beyond"), tail(untraced.solve))),
        "samples": {"solve": len(untraced.solve), "verify": len(untraced.verify)},
    }
    setup_s = import_s + statistics.median(setup_times) + untraced.gen_s
    result["speed"] = {"factor": speed.factor(), "samples": len(speed.samples)}
    result["end_to_end"] = end_to_end(untraced, setup_s / speed.factor_during(setup_start, setup_end), speed)
    result["measured_end_to_end"] = end_to_end(untraced, setup_s, None)
    if args.trace:
        tracer = Tracer()
        instrument(tracer, prog)
        try:
            with tracer.span("bench.setup"):
                inputs = workload.setup()
            traced = workload.run(inputs, tracer, NoSpeed())
        finally:
            tracer.patches.restore()
        if traced.outcomes != untraced.outcomes:
            raise BenchmarkError("the traced pass answered differently from the untraced pass")
        result["per_layer"] = per_layer(tracer, traced, untraced)
        result["traced_instances_per_s"] = traced.attempted / traced.wall
        result["traced_measured_s"] = tracer.duration(ROOT_SPANS)
    return result


def report(args, env: dict, result: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env))
    print(
        f"answered {result['attempted']} instances in {result['wall_s']:.3f} s: "
        f"{result['found']} found and verified, not found by stage {result['fails'] or '{}'}"
    )
    units = dict(END_TO_END)
    speed = result["speed"]
    print(f"  speed factor {speed['factor']:.4f} over the run, from {speed['samples']} reference timings; "
          f"metrics scaled by the speed where they were measured, then as measured:")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<16} {value:>14.6g} {result['measured_end_to_end'][name]:>14.6g} {units[name]}")
    t = result["tail"]
    print(f"  solve_s_tail is p{t['percentile']:.1f} of {result['samples']['solve']} samples, {t['beyond']} beyond it")
    s = result["setup"]
    print(f"  setup_s = import {s['import_s']:.4f} + inputs {s['inputs_s']:.4f} + generation in the run {s['generation_in_run_s']:.4f}")
    if "per_layer" in result:
        layer = result["per_layer"]
        untraced_rate = result["measured_end_to_end"]["instances_per_s"]
        print(
            f"traced pass: {result['traced_instances_per_s']:.6g} instances/s against {untraced_rate:.6g} "
            f"untraced, tracing overhead {layer['trace.overhead']:+.2%}"
        )
        measured, unattributed = result["traced_measured_s"], layer["trace.unattributed_s"]
        print(
            f"  layer self times cover {measured - unattributed:.4f} s of the {measured:.4f} s "
            f"traced solve/verify time; {unattributed:.4f} s ({unattributed / measured:.2%}) is unattributed"
        )
        units = dict(PER_LAYER)
        for name, value in layer.items():
            if value:
                print(f"  {name:<36} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, environment included, as JSON here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        prog, import_s = import_program()
    except ImportError as exc:
        print(f"error: cannot import homeofind from {SRC}: {exc}", file=sys.stderr)
        return 2

    env = environment()
    try:
        result = measure(args, prog, import_s)
    except Exception as exc:  # the run's boundary: any error aborts it
        if isinstance(exc, BenchmarkError):
            print(f"error: wrong output: {exc}", file=sys.stderr)
        else:
            traceback.print_exc()
            print(f"error: unexpected {type(exc).__name__} from the program", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 1, "metrics": {}}))
        return 1

    report(args, env, result)
    if args.out:
        Path(args.out).write_text(json.dumps({"args": vars(args), "env": env, **result}, indent=1) + "\n")
    chosen = result["per_layer"] if args.trace else result["end_to_end"]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in chosen.items()}
    # A not-found answer is an answer: it is counted in found_frac, not here.
    # Every operation that did fail has aborted the run above.
    print(json.dumps({"correct": True, "attempted": result["attempted"], "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
