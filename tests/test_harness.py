import copy
import dataclasses
import hashlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from conftest import face_text, random_host
from homeofind import harness
from homeofind.core import Config
from homeofind.errors import NoQualifyingVertex
from homeofind.harness import SweepSpec, gen_random_host, run_sweep
from homeofind.io import FormatError, load_certificate, load_target
from homeofind.seeding import derive_seed
from homeofind.verify import verify_certificate


class TestGenRandomHost:
    def test_p_zero_and_one(self):
        assert gen_random_host(4, 4, 4, 0, seed=1).e == 0
        assert gen_random_host(4, 4, 4, 1, seed=1).e == 64

    def test_seed_determinism(self):
        a = gen_random_host(6, 6, 6, 0.3, seed=42)
        b = gen_random_host(6, 6, 6, 0.3, seed=42)
        c = gen_random_host(6, 6, 6, 0.3, seed=43)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("args, digest", [
        ((6, 6, 6, 0.3, 42),
         "d407c702bddbfb520e9108c576940c2be1a8664574660f31c6ff84b58592ecaf"),
        ((30, 30, 30, 0.5, 7),
         "438b3b267acc97244dfd3ef23a3b19a5200407673693460db990b17b32db614f"),
    ])
    def test_output_pinned(self, args, digest):
        # Every seeded host (the benchmark's inputs among them) depends on the
        # order of the draws; a change to it must show up here.  The host is
        # hashed as face lines, a rendering that does not follow write_host's
        # format.
        text = face_text(gen_random_host(*args))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_binomial_mean_within_four_sigma(self):
        n, p, seeds = 10, 0.5, 100
        total = sum(gen_random_host(n, n, n, p, seed=s).e for s in range(seeds))
        cells = seeds * n ** 3
        mean = cells * p
        sigma = math.sqrt(cells * p * (1 - p))
        assert abs(total - mean) < 4 * sigma

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            gen_random_host(2, 2, 2, 1.5, seed=0)

    def test_empty_class_leaves_n_z_unread(self):
        # no potential face: nothing is drawn or sized by n_z, however large
        assert gen_random_host(0, 1, 10 ** 12, 0.5, seed=0).e == 0
        assert gen_random_host(1, 0, 10 ** 12, 0.5, seed=0).e == 0

    @pytest.mark.parametrize("sizes", [(-1, 2, 2), (3, -2, -3), (2, 2, -1)])
    def test_rejects_negative_sizes(self, sizes):
        with pytest.raises(ValueError, match="class sizes"):
            gen_random_host(*sizes, 0.5, seed=0)


# The per-draw reference is conftest.random_host: one draw() < p per
# potential face, in (x, y, z) order, from random.Random(seed).
ORACLE_SIZES = [
    (0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0), (1, 1, 1), (3, 5, 7),
    (2, 3, 64), (2, 2, 70), (5, 4, 33),
]
ORACLE_PS = [0.0, 1.0, 5e-324, 2 ** -30, 1 / 3, 1 - 2 ** -53]


def tie_outcomes(draws: int, p: float, seed: int) -> list[bool]:
    """``draw() < p`` for each of the first ``draws`` draws whose top 8 of
    53 bits equal those of ceil(p * 2**53): the draws that the generator's
    byte table leaves to the exact test."""
    draw = random.Random(seed).random
    top = math.ceil(p * 2.0 ** 53) >> 45
    out = []
    for _ in range(draws):
        u = draw()
        if int(u * 2.0 ** 53) >> 45 == top:
            out.append(u < p)
    return out


class TestGeneratorOracle:
    @pytest.mark.parametrize("sizes", ORACLE_SIZES)
    @pytest.mark.parametrize("p", ORACLE_PS)
    def test_equals_per_draw_reference(self, sizes, p):
        for seed in (0, 7, 2 ** 70 + 1):
            want = random_host(random.Random(seed), *sizes, p)
            assert gen_random_host(*sizes, p, seed) == want

    def test_every_top_byte_bound(self):
        # p = k/256 puts the bound ceil(p * 2**53) on a multiple of 2**45:
        # a draw whose top byte is k ties, and is dropped by the exact test.
        sizes, seed = (3, 4, 70), 5
        ties = []
        for k in range(257):
            p = k / 256
            assert gen_random_host(*sizes, p, seed) == random_host(
                random.Random(seed), *sizes, p
            ), k
            ties += tie_outcomes(840, p, seed)
        assert len(ties) > 500 and not any(ties)

    def test_p_at_a_draw(self):
        # p equal to one of the draws, or one float away from it: that draw
        # is kept exactly when it is below p, which only the full 53 bits
        # of the draw decide.
        sizes = (2, 3, 5)
        for seed in range(4):
            draw = random.Random(seed).random
            for u in [draw() for _ in range(30)][::6]:
                for p in (math.nextafter(u, 0), u, math.nextafter(u, 1)):
                    want = random_host(random.Random(seed), *sizes, p)
                    assert gen_random_host(*sizes, p, seed) == want, (seed, p)

    @pytest.mark.parametrize("p", [1 / 3, 0.9, 30 ** -0.2])
    def test_ties_decided_both_ways(self, p):
        sizes = (3, 4, 70)
        ties = []
        for seed in range(10):
            assert gen_random_host(*sizes, p, seed) == random_host(
                random.Random(seed), *sizes, p
            )
            ties += tie_outcomes(840, p, seed)
        assert any(ties) and not all(ties)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        s1 = derive_seed(7, 10, 0)
        assert s1 == derive_seed(7, 10, 0)
        assert s1 != derive_seed(7, 10, 1)
        assert s1 != derive_seed(7, 11, 0)
        assert s1 != derive_seed(8, 10, 0)

    def test_order_sensitive(self):
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)

    def test_fits_in_64_bits(self):
        for parts in [(0,), (1, 2, 3), (2 ** 80, -5)]:
            assert 0 <= derive_seed(9, *parts) < 2 ** 64


class TestSweepSpec:
    def test_from_json(self):
        spec = SweepSpec.from_json(json.dumps({
            "target": "builtin:triangle",
            "n_values": [10, 20],
            "a": "1/2",
            "b": "1/5",
            "trials": 3,
            "seed": 5,
            "cfg": {"C": "2", "k_threshold": 3},
        }))
        assert spec.n_values == (10, 20)
        assert spec.a == Fraction(1, 2)
        assert spec.cfg_overrides["k_threshold"] == 3

    def test_density_rule(self):
        spec = SweepSpec("builtin:triangle", (32,), Fraction(1), Fraction(1, 5), 1, 0)
        assert spec.p_for(32) == pytest.approx(32 ** -0.2)

    def test_density_out_of_range(self):
        spec = SweepSpec("builtin:triangle", (2,), Fraction(3), Fraction(0), 1, 0)
        with pytest.raises(ValueError):
            spec.p_for(2)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            SweepSpec("builtin:triangle", (4,), Fraction(1), Fraction(0), 0, 0)

    @pytest.mark.parametrize("n_values, trials", [
        ((True,), 1), ((4.0,), 1), ((4,), True), ((4,), 2.0),
    ])
    def test_integer_fields_reject_floats_and_bools(self, n_values, trials):
        with pytest.raises(ValueError, match="integer"):
            SweepSpec("builtin:triangle", n_values, Fraction(1), Fraction(0), trials, 0)

    @pytest.mark.parametrize("key", ["foo", "epsilon", "rng_seed"])
    def test_rejects_cfg_keys_a_sweep_does_not_set(self, key):
        with pytest.raises(ValueError, match="unknown sweep cfg key"):
            SweepSpec("builtin:triangle", (4,), Fraction(1), Fraction(0), 1, 0, {key: 1})

    def test_cfg_rationals_from_decimal_text(self):
        spec = SweepSpec.from_json(json.dumps({
            "target": "builtin:triangle", "n_values": [10], "a": 1, "trials": 1,
            "cfg": {"C": 0.1, "delta": "1/3"},
        }))
        assert spec.cfg_overrides == {"C": Fraction(1, 10), "delta": Fraction(1, 3)}

    def test_cfg_must_be_an_object(self):
        with pytest.raises(FormatError) as info:
            SweepSpec.from_json(json.dumps({
                "target": "builtin:triangle", "n_values": [10], "a": 1, "trials": 1, "cfg": [],
            }))
        assert str(info.value) == "malformed sweep spec: 'list' object is not a mapping"

    def test_cfg_rationals_on_direct_construction(self):
        # Config takes only ints and Fractions; the spec reads C and delta
        # from their decimal text however it is built
        spec = SweepSpec("builtin:triangle", (4,), Fraction(1), Fraction(0), 1, 0,
                         {"C": "1/2", "delta": 0.25, "k_threshold": 3})
        assert spec.cfg_overrides == {"C": Fraction(1, 2), "delta": Fraction(1, 4), "k_threshold": 3}
        with pytest.raises(FormatError, match='"C" must be a rational'):
            SweepSpec("builtin:triangle", (4,), Fraction(1), Fraction(0), 1, 0, {"C": "x"})

    # a spec every check passes, as keyword arguments to SweepSpec
    GOOD = dict(target="builtin:triangle", n_values=[12], a="1", b="1/5", trials=2, seed=0,
                cfg_overrides={"C": "2", "k_threshold": 3})

    def test_python_spec_equals_its_json_form(self):
        spec = SweepSpec(**{**self.GOOD, "n_values": [10, 20], "b": 0.2, "seed": -9})
        raw = {**self.GOOD, "n_values": [10, 20], "b": 0.2, "seed": -9}
        raw["cfg"] = raw.pop("cfg_overrides")
        assert spec == SweepSpec.from_json(json.dumps(raw))
        assert (spec.n_values, spec.a, spec.b) == ((10, 20), Fraction(1), Fraction(1, 5))
        assert spec.cfg_overrides == {"C": Fraction(2), "k_threshold": 3}

    @pytest.mark.parametrize("key, value, message", [
        ("target", 5, 'sweep spec: "target" must be a string, got 5'),
        ("target", None, 'sweep spec: "target" must be a string, got null'),
        ("n_values", 8, 'sweep spec: "n_values" must be a list'),
        ("n_values", [12, 0], 'sweep spec: "n_values" must be at least 1, got 0'),
        ("n_values", [12.0], 'sweep spec: "n_values" must be an integer, got 12.0'),
        ("a", "1/0", 'sweep spec: "a" must be a rational, got "1/0"'),
        ("a", True, 'sweep spec: "a" must be a rational, got true'),
        ("b", None, 'sweep spec: "b" must be a rational, got null'),
        ("trials", 0, 'sweep spec: "trials" must be at least 1, got 0'),
        ("trials", "2", 'sweep spec: "trials" must be an integer, got "2"'),
        ("seed", 1.5, 'sweep spec: "seed" must be an integer, got 1.5'),
        ("seed", False, 'sweep spec: "seed" must be an integer, got false'),
        ("cfg_overrides", ["C"], "malformed sweep spec: 'list' object is not a mapping"),
        ("cfg_overrides", {"rng_seed": 1}, "unknown sweep cfg key(s) ['rng_seed']; allowed: "),
        ("cfg_overrides", {"retry_limit": 1.5}, 'sweep spec: "retry_limit" must be an integer, got 1.5'),
    ])
    def test_each_field_checked_alike_in_python_and_json(self, key, value, message):
        fields = {**self.GOOD, key: value}
        with pytest.raises(FormatError) as built:
            SweepSpec(**fields)
        fields["cfg"] = fields.pop("cfg_overrides")
        with pytest.raises(FormatError) as read:
            SweepSpec.from_json(json.dumps(fields))
        assert str(built.value) == str(read.value)
        assert str(built.value).startswith(message)

    def test_checked_overrides_are_read_only(self):
        spec = SweepSpec(**self.GOOD)
        with pytest.raises(TypeError):
            spec.cfg_overrides["C"] = 0.5
        assert spec.cfg_overrides == {"C": Fraction(2), "k_threshold": 3}
        # replace runs every check again, on the proxy as on a dict
        assert dataclasses.replace(spec, trials=3).cfg_overrides == spec.cfg_overrides
        with pytest.raises(FormatError, match='"C" must be a rational'):
            dataclasses.replace(spec, cfg_overrides={"C": "x"})

    def test_spec_hashes_by_value(self):
        a = SweepSpec(**{**self.GOOD, "n_values": [8]})
        b = SweepSpec(**{**self.GOOD, "n_values": (8,)})
        assert a == b and hash(a) == hash(b)
        assert a != dataclasses.replace(b, cfg_overrides={"C": "3", "k_threshold": 3})

    def test_pickle_and_deepcopy_round_trip(self):
        spec = SweepSpec(**self.GOOD)
        for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert copied == spec and hash(copied) == hash(spec)
            with pytest.raises(TypeError, match="read-only"):
                copied.cfg_overrides["C"] = 0.5

    def test_asdict_round_trips_the_overrides(self):
        spec = SweepSpec(**self.GOOD)
        fields = dataclasses.asdict(spec)
        assert fields["cfg_overrides"] == {"C": Fraction(2), "k_threshold": 3}
        assert SweepSpec(**fields) == spec and hash(SweepSpec(**fields)) == hash(spec)
        with pytest.raises(TypeError, match="read-only"):
            fields["cfg_overrides"]["C"] = 0.5

    @pytest.mark.parametrize("change", [
        lambda m: m.update(C=1), lambda m: m.pop("C"), lambda m: m.popitem(), lambda m: m.clear(),
        lambda m: m.setdefault("delta", 1), lambda m: m.__delitem__("C"), lambda m: m.__ior__({"C": 1}),
    ])
    def test_every_change_to_the_overrides_is_refused(self, change):
        spec = SweepSpec(**self.GOOD)
        with pytest.raises(TypeError, match="read-only"):
            change(spec.cfg_overrides)
        assert spec.cfg_overrides == {"C": Fraction(2), "k_threshold": 3}

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"spec"', "null"])
    def test_spec_must_be_a_json_object(self, text):
        with pytest.raises(FormatError, match="^malformed sweep spec: "):
            SweepSpec.from_json(text)

    def test_value_without_json_text_shown_by_repr(self):
        with pytest.raises(FormatError) as info:
            SweepSpec(**{**self.GOOD, "seed": Fraction(3, 2)})
        assert str(info.value) == 'sweep spec: "seed" must be an integer, got "Fraction(3, 2)"'


class TestRunSweep:
    def _spec(self, a, b="0", trials=3, n=12, seed=11):
        return SweepSpec(
            target="builtin:triangle",
            n_values=(n,),
            a=Fraction(a),
            b=Fraction(b),
            trials=trials,
            seed=seed,
            cfg_overrides={"C": "1", "k_threshold": 3},
        )

    def test_complete_hosts_always_succeed(self, tmp_path):
        rows = run_sweep(self._spec("1"), tmp_path)
        assert rows[0].successes == rows[0].trials
        assert rows[0].failure_stages == {}

    def test_empty_hosts_always_fail(self):
        rows = run_sweep(self._spec("0"))
        assert rows[0].successes == 0
        assert sum(rows[0].failure_stages.values()) == rows[0].trials
        assert "pick_link_vertex" in rows[0].failure_stages

    def test_rows_file_byte_determinism(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_sweep(self._spec("1"), d1)
        run_sweep(self._spec("1"), d2)
        assert (d1 / "rows.tsv").read_bytes() == (d2 / "rows.tsv").read_bytes()
        for f in sorted(d1.glob("*.cert")):
            assert f.read_bytes() == (d2 / f.name).read_bytes()

    def test_certificates_reverify_from_disk(self, tmp_path):
        spec = self._spec("1", trials=2)
        rows = run_sweep(spec, tmp_path)
        n = spec.n_values[0]
        certs = sorted(tmp_path.glob("*.cert"))
        assert len(certs) == rows[0].successes == 2
        for trial, path in enumerate(certs):
            cert = load_certificate(str(path))
            host = gen_random_host(
                n, n, n, spec.p_for(n), derive_seed(spec.seed, n, trial)
            )
            assert verify_certificate(cert, host).passed

    @pytest.mark.parametrize("cfg", [{}, {"C": 1, "k_threshold": 3}, {"delta": Fraction(1, 3), "retry_limit": 7}])
    def test_trial_config_is_desk_scale(self, monkeypatch, cfg):
        seen = []

        def fake_find(host, target, trial_cfg):
            seen.append(trial_cfg)
            raise NoQualifyingVertex("not searched")

        monkeypatch.setattr(harness, "find_homeomorph", fake_find)
        spec = dataclasses.replace(self._spec("1", trials=2), cfg_overrides=cfg)
        run_sweep(spec)
        target = load_target(spec.target)
        n = spec.n_values[0]
        assert seen == [
            Config.desk_scale(target, rng_seed=derive_seed(spec.seed, n, t), **cfg)
            for t in range(spec.trials)
        ]

    def test_mean_faces_exact(self):
        spec = self._spec("1", trials=2)
        rows = run_sweep(spec)
        assert rows[0].mean_host_faces == Fraction(12 ** 3)
