"""A target's auxiliary graph is a fact of the ``ThreeGraph``: it is built
on first read by its one builder in ``core`` and kept on the object, and a
certificate's faces are read off its special cycles.

The cached fact is the same object on a second read and equals a fresh
build, on every shipped target and on random complexes; a target whose
fact is cached still compares and hashes by value and survives ``copy``
and ``pickle``.  Counting the builder's calls pins the sharing: a sweep
builds the graph of its one target once, and so do two find-and-verify
rounds on one target object; neither works out chi.
"""

import copy
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homeofind
import homeofind.core as core
from conftest import complete_host, random_threegraph
from homeofind.core import (
    Config,
    ThreeGraph,
    build_aux_graph,
    euler_characteristic,
)
from homeofind.embed import find_homeomorph
from homeofind.harness import SweepSpec, gen_random_host, run_sweep
from homeofind.io import load_target
from homeofind.verify import verify_certificate

DATA = Path(homeofind.__file__).resolve().parent / "data"
NAMES = sorted(p.stem for p in DATA.glob("*.tg"))

# (cached attribute, its builder)
FACTS = [
    ("aux_graph", build_aux_graph),
]


def targets():
    shipped = [load_target(f"builtin:{name}") for name in NAMES]
    assert shipped
    rng = random.Random(42)
    return shipped + [random_threegraph(rng) for _ in range(100)]


def with_facts(h: ThreeGraph) -> ThreeGraph:
    for attr, _ in FACTS:
        getattr(h, attr)
    return h


@pytest.mark.parametrize("attr, build", FACTS, ids=[a for a, _ in FACTS])
def test_cached_fact_is_kept_and_equals_a_fresh_build(attr, build):
    for h in targets():
        first = getattr(h, attr)
        assert getattr(h, attr) is first
        assert first == build(h)


def test_cached_facts_leave_equality_and_hashing_by_value():
    for h in targets():
        before = hash(h)
        fresh = ThreeGraph(h.vertex_count, h.faces)
        with_facts(h)
        assert h == fresh and fresh == h
        assert hash(h) == before == hash(fresh)


@pytest.mark.parametrize("clone", [copy.copy, lambda h: pickle.loads(pickle.dumps(h))],
                         ids=["copy", "pickle"])
def test_cached_facts_survive_copies(clone):
    for h in targets():
        twin = clone(with_facts(h))
        assert twin == h and hash(twin) == hash(h)
        for attr, build in FACTS:
            assert getattr(twin, attr) == build(h)


@pytest.fixture
def builds(monkeypatch):
    """Calls of each builder, counted where the cached facts call them, and
    of ``euler_characteristic``, counted under every package module's name
    for it."""
    counts = {attr: 0 for attr, _ in FACTS} | {"euler_characteristic": 0}

    def counter(key, build):
        def counted(h):
            counts[key] += 1
            return build(h)

        return counted

    for attr, build in FACTS:
        monkeypatch.setattr(core, build.__name__, counter(attr, build))
    chi = counter("euler_characteristic", euler_characteristic)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "homeofind" and (
            getattr(module, "euler_characteristic", None) is euler_characteristic
        ):
            monkeypatch.setattr(module, "euler_characteristic", chi)
    return counts


def test_sweep_builds_each_target_fact_once(builds, tmp_path):
    # seed 1 finds 4 of the 5 trials; every certificate is verified and written
    spec = SweepSpec("builtin:triangle", (20,), Fraction(1), Fraction(1, 5), 5, 1, {"C": 2})
    (row,) = run_sweep(spec, tmp_path)
    assert 0 < row.successes < row.trials
    assert builds == {"aux_graph": 1, "euler_characteristic": 0}


def test_find_and_verify_rounds_build_each_target_fact_once(builds):
    target = load_target("builtin:k4")
    cfg = Config.desk_scale(target, C=2)
    hosts = [complete_host(20), gen_random_host(30, 30, 30, 0.8, 3)]
    for host in hosts:
        cert = find_homeomorph(host, target, cfg)
        assert cert.target is target
        assert verify_certificate(cert, host).passed
        assert builds == {"aux_graph": 1, "euler_characteristic": 0}
