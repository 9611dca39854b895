"""Random host generation and density sweeps.

Sweeps reproduce, at desk scale, the threshold behaviour of the main
density hypothesis: hosts are binomial 3-partite 3-graphs with face
probability p = a * n**(-b), and each (n, trial) cell runs the full
find-and-verify pipeline with a seed derived from the master seed.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .core import Config, ThreeGraph, TripartiteHost
from .embed import find_homeomorph
from .errors import PipelineError
from .io import load_target, write_certificate
from .seeding import derive_seed
from .verify import verify_certificate


def gen_random_host(
    n_x: int, n_y: int, n_z: int, p: float | Fraction, seed: int
) -> TripartiteHost:
    """Binomial random host: each potential face kept with probability p."""
    p = float(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    draw = random.Random(seed).random
    faces = [
        (x, y, z)
        for x in range(n_x)
        for y in range(n_y)
        for z in range(n_z)
        if draw() < p
    ]
    return TripartiteHost((n_x, n_y, n_z), faces)


@dataclass(frozen=True)
class SweepSpec:
    target: str  # path or builtin:NAME
    n_values: tuple[int, ...]
    a: Fraction  # density rule p = a * n**(-b)
    b: Fraction
    trials: int
    seed: int
    cfg_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def p_for(self, n: int) -> float:
        p = float(self.a) * n ** (-float(self.b))
        if not 0 <= p <= 1:
            raise ValueError(f"density rule gives p = {p} outside [0, 1] at n = {n}")
        return p

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        raw = json.loads(text)
        return cls(
            target=raw["target"],
            n_values=tuple(raw["n_values"]),
            a=Fraction(str(raw["a"])),
            b=Fraction(str(raw.get("b", "1/5"))),
            trials=int(raw["trials"]),
            seed=int(raw.get("seed", 0)),
            cfg_overrides=dict(raw.get("cfg", {})),
        )


@dataclass
class SweepRow:
    n: int
    p: float
    trials: int
    successes: int
    mean_host_faces: Fraction
    mean_runtime: float
    failure_stages: dict[str, int]

    def serialize(self) -> str:
        # runtime is excluded from the on-disk row to keep output bytes
        # reproducible across machines
        failures = ",".join(f"{k}={v}" for k, v in sorted(self.failure_stages.items()))
        return (
            f"{self.n}\t{self.p!r}\t{self.trials}\t{self.successes}\t"
            f"{self.mean_host_faces}\t{failures or '-'}"
        )


def _cfg_for(target: ThreeGraph, overrides: dict, seed: int) -> Config:
    kw = dict(overrides)
    for key in ("C", "delta", "epsilon"):
        if key in kw:
            kw[key] = Fraction(str(kw[key]))
    kw.setdefault("k_threshold", max(1, 3 * target.e))
    kw["rng_seed"] = seed
    return Config(**kw)


def run_sweep(spec: SweepSpec, out_dir: str | Path | None = None) -> list[SweepRow]:
    """Run every (n, trial) cell; per-trial failures never abort the sweep."""
    target = load_target(spec.target)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    rows = []
    for n in spec.n_values:
        p = spec.p_for(n)
        successes = 0
        total_faces = 0
        total_time = 0.0
        failures: dict[str, int] = {}
        for trial in range(spec.trials):
            trial_seed = derive_seed(spec.seed, n, trial)
            host = gen_random_host(n, n, n, p, trial_seed)
            total_faces += host.e
            cfg = _cfg_for(target, spec.cfg_overrides, trial_seed)
            t0 = time.perf_counter()
            try:
                cert = find_homeomorph(host, target, cfg)
            except PipelineError as exc:
                failures[exc.stage] = failures.get(exc.stage, 0) + 1
            else:
                result = verify_certificate(cert, host)
                if result.passed:
                    successes += 1
                    if out_path is not None:
                        name = f"cert_n{n}_t{trial}_s{spec.seed}.cert"
                        (out_path / name).write_text(write_certificate(cert))
                else:
                    failures["verify"] = failures.get("verify", 0) + 1
            total_time += time.perf_counter() - t0
        rows.append(
            SweepRow(
                n=n,
                p=p,
                trials=spec.trials,
                successes=successes,
                mean_host_faces=Fraction(total_faces, spec.trials),
                mean_runtime=total_time / spec.trials,
                failure_stages=failures,
            )
        )
    if out_path is not None:
        header = "# n\tp\ttrials\tsuccesses\tmean_host_faces\tfailures\n"
        body = "".join(row.serialize() + "\n" for row in rows)
        (out_path / "rows.tsv").write_text(header + body)
    return rows
