"""Random host generation and density sweeps.

Sweeps reproduce, at desk scale, the threshold behaviour of the main
density hypothesis: hosts are binomial 3-partite 3-graphs with face
probability p = a * n**(-b), and each (n, trial) cell runs the full
find-and-verify pipeline with a seed derived from the master seed.
"""

from __future__ import annotations

import json
import math
import random
import struct
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

from .core import Config, TripartiteHost
from .embed import find_homeomorph
from .errors import PipelineError
from .io import FormatError, load_target, write_certificate
from .seeding import derive_seed
from .verify import verify_certificate


# the two 32-bit outputs a, b behind one random() draw
_WORD_PAIR = struct.Struct("<II")


def gen_random_host(
    n_x: int, n_y: int, n_z: int, p: float | Fraction, seed: int
) -> TripartiteHost:
    """Binomial random host: each potential face kept with probability p.

    The host is the one that one ``random()`` draw per potential face, in
    (x, y, z) lexicographic order, keeps when the draw is below p; the
    draws are made in bulk.  CPython's ``random()`` is v / 2**53 with
    v = (a >> 5) * 2**26 + (b >> 6) for two consecutive 32-bit outputs a, b
    of the Mersenne Twister, so a face is kept exactly when
    v < ceil(p * 2**53) (p * 2**53 only scales by a power of two).

    Each x takes the 2 * n_y * n_z outputs of its draws from one
    ``getrandbits`` call, read as little-endian bytes.  This relies on
    CPython's ``getrandbits`` putting its 32-bit words in the order they
    are made, least significant first; the pinned digests in the tests
    guard it.  The top byte of a, which is the top 8 bits of v, decides a
    draw through one byte table; a tie with the top 8 bits of the bound
    (about 1 draw in 256) is decided from the full v.  The row's digits,
    reversed, read through ``int(..., 2)`` as one integer whose bit
    y * n_z + z is the face (x, y, z).
    """
    if not 0 <= p <= 1:  # on the exact value: float() may overflow
        raise ValueError("p must lie in [0, 1]")
    p = float(p)
    if min(n_x, n_y, n_z) <= 0:  # no potential face, no draw
        return TripartiteHost._from_table((n_x, n_y, n_z), (), ())
    rng = random.Random(seed)
    bound = math.ceil(p * 2.0 ** 53)  # random() < p  <=>  v < bound
    top = bound >> 45
    # top byte of a -> the draw's digit: "1" kept, "0" dropped, "2" a tie
    verdict = (b"1" * top + b"2" + b"0" * 255)[:256]
    row = n_y * n_z
    full = (1 << n_z) - 1
    keys, masks = [], []
    for x in range(n_x):
        words = rng.getrandbits(64 * row).to_bytes(8 * row, "little")
        digits = words[3::8].translate(verdict)
        i = digits.find(b"2")
        if i >= 0:
            digits = bytearray(digits)
            while i >= 0:
                a, b = _WORD_PAIR.unpack_from(words, 8 * i)
                digits[i] = 49 if ((a >> 5) << 26 | b >> 6) < bound else 48
                i = digits.find(b"2", i + 1)
        bits = int(digits[::-1], 2)
        for flat in range(x * n_y, (x + 1) * n_y):
            if mask := bits & full:
                keys.append(flat)
                masks.append(mask)
            bits >>= n_z
    return TripartiteHost._from_table((n_x, n_y, n_z), keys, tuple(masks))


_CFG_KEYS = tuple(f.name for f in fields(Config) if f.name != "rng_seed")


class _Overrides(dict):
    """A sweep spec's checked ``cfg_overrides``: a dict that refuses every
    change once built, so the check cannot be undone.  A copy is built
    again from its items: ``dataclasses.asdict`` calls the type with them,
    and ``copy`` and ``pickle`` through ``__reduce__``."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a sweep spec's checked cfg_overrides are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class SweepSpec:
    """A density sweep p = a * n**(-b), every field checked where the spec is
    built, in Python or by ``from_json``: ``n_values`` is a list or tuple,
    kept as a tuple, and ``_read`` reads each value.  ``cfg_overrides``,
    read-only once checked, sets Config fields but rng_seed, which each
    trial derives from ``seed``."""

    target: str  # path or builtin:NAME
    n_values: tuple[int, ...]
    a: Fraction
    b: Fraction
    trials: int
    seed: int
    cfg_overrides: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        for key in ("target", "a", "b", "trials", "seed"):
            put(key, _read(getattr(self, key), key))
        if not isinstance(self.n_values, (list, tuple)):
            raise FormatError('sweep spec: "n_values" must be a list')
        put("n_values", tuple(_read(n, "n_values") for n in self.n_values))
        try:
            cfg = {**self.cfg_overrides}
        except TypeError as exc:  # not a mapping
            raise FormatError(f"malformed sweep spec: {exc}") from None
        if unknown := sorted(set(cfg) - set(_CFG_KEYS), key=str):
            raise FormatError(f"unknown sweep cfg key(s) {unknown}; allowed: {', '.join(_CFG_KEYS)}")
        put("cfg_overrides", _Overrides({k: _read(v, k) for k, v in cfg.items()}))

    def p_for(self, n: int) -> float:
        try:
            p = float(self.a) * n ** (-float(self.b))
        except OverflowError:
            raise ValueError(f"density rule overflows a float at n = {n}") from None
        if not 0 <= p <= 1:
            raise ValueError(f"density rule gives p = {p} outside [0, 1] at n = {n}")
        return p

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """The spec of a JSON object keyed by field name, with ``cfg`` for
        ``cfg_overrides`` (no rng_seed: each trial derives that int); ``b``
        defaults to 1/5 and ``seed`` to 0."""
        raw = json.loads(text)
        try:
            return cls(raw["target"], raw["n_values"], raw["a"], raw.get("b", "1/5"),
                       raw["trials"], raw.get("seed", 0), raw.get("cfg", {}))
        except KeyError as exc:
            raise FormatError(f"sweep spec lacks the key {exc}") from None
        except TypeError as exc:  # the spec is no JSON object
            raise FormatError(f"malformed sweep spec: {exc}") from None


def _read(value, key: str):
    """A sweep spec's ``value`` for ``key``: target is a string; a, b, C and
    delta are rationals read from their decimal text (0.1 is 1/10); the rest
    are JSON integers (no float, string or bool), n_values and trials >= 1."""
    if key in ("a", "b", "C", "delta"):
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            kind = "a rational"
    elif key == "target":
        if type(value) is str:
            return value
        kind = "a string"
    elif type(value) is not int:
        kind = "an integer"
    elif value < 1 and key in ("n_values", "trials"):
        kind = "at least 1"
    else:
        return value
    raise FormatError(f'sweep spec: "{key}" must be {kind}, got {json.dumps(value, default=repr)}')


@dataclass
class SweepRow:
    n: int
    p: float
    trials: int
    successes: int
    mean_host_faces: Fraction
    failure_stages: dict[str, int]

    def serialize(self) -> str:
        failures = ",".join(f"{k}={v}" for k, v in sorted(self.failure_stages.items()))
        return (
            f"{self.n}\t{self.p!r}\t{self.trials}\t{self.successes}\t"
            f"{self.mean_host_faces}\t{failures or '-'}"
        )


def run_sweep(spec: SweepSpec, out_dir: str | Path | None = None) -> list[SweepRow]:
    """Run every (n, trial) cell; per-trial failures never abort the sweep.
    Every density and the config are checked before anything is written or drawn."""
    target = load_target(spec.target)
    ps = [spec.p_for(n) for n in spec.n_values]
    cfg = Config.desk_scale(target, **spec.cfg_overrides)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    rows = []
    for n, p in zip(spec.n_values, ps):
        successes = 0
        total_faces = 0
        failures: dict[str, int] = {}
        for trial in range(spec.trials):
            trial_seed = derive_seed(spec.seed, n, trial)
            host = gen_random_host(n, n, n, p, trial_seed)
            total_faces += host.e
            try:
                cert = find_homeomorph(host, target, replace(cfg, rng_seed=trial_seed))
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
        rows.append(
            SweepRow(
                n=n,
                p=p,
                trials=spec.trials,
                successes=successes,
                mean_host_faces=Fraction(total_faces, spec.trials),
                failure_stages=failures,
            )
        )
    if out_path is not None:
        header = "# n\tp\ttrials\tsuccesses\tmean_host_faces\tfailures\n"
        body = "".join(row.serialize() + "\n" for row in rows)
        (out_path / "rows.tsv").write_text(header + body)
    return rows
