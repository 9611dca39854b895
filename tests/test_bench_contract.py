"""The benchmark's tracing contract with the program.

``bench/spans.py`` traces a run by rebinding, from outside, the module
attributes listed in its ``SPANS``.  A rename or deletion of one of those
functions would break ``bench/run.py --trace 1`` without failing any other
test; this one instruments the program the way ``bench/run.py`` does, runs
one find/verify round trip, and one core-set scan where the triples are
counted, and checks that every span was recorded and every original put
back.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from conftest import HUB_N, hub_link, pair_masks
from homeofind.core import Config
from homeofind.io import load_target

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _program():
    """The namespace that bench/run.py's import_program hands to instrument()."""
    names = ("core", "embed", "errors", "harness", "io", "links", "verify")
    mods = {m: sys.modules[f"homeofind.{m}"] for m in names}
    return SimpleNamespace(**mods, HostIndex=mods["links"].HostIndex)


def test_every_span_resolves_records_and_restores():
    spans = _load_spans()
    prog = _program()
    originals = {
        (owner, attr): getattr(getattr(prog, owner), attr)
        for _, attr, owners in spans.SPANS
        for owner in owners
    }

    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, prog)
        for (owner, attr), fn in originals.items():
            assert getattr(getattr(prog, owner), attr) is not fn, (owner, attr)

        target = load_target("builtin:triangle")
        host = prog.harness.gen_random_host(8, 8, 8, 1, 0)
        host = prog.io.parse_host(prog.io.write_host(host))
        cfg = Config(C=2, k_threshold=3 * target.e)
        cert = prog.embed.find_homeomorph(host, target, cfg)
        cert = prog.io.parse_certificate(prog.io.write_certificate(cert))
        assert prog.verify.verify_certificate(cert, host).passed
        # the bound C(s, 3) settles (C) on that host, so the triples are
        # classified only on a hub link, where it cannot: x = 0 passes
        # after its 25 Y-vertices are classified
        link, bad_pairs = hub_link(random.Random(0))
        x, yprime = prog.embed.select_core_set(
            link, pair_masks(bad_pairs, HUB_N), Config(C=10), HUB_N, Fraction(10, 27)
        )
        assert (x, len(yprime)) == (0, 25)
    finally:
        tracer.patches.restore()

    recorded = {name for name, *_ in tracer.spans}
    assert recorded == {name for name, _, _ in spans.SPANS}
    assert all(tracer.counts[name] > 0 for name in ("links.link_edges", "embed.core_size"))
    # one PairStats per pair of the hub link's Gamma(0), and none on the host
    assert tracer.counts["embed.pairs_classified"] == 300
    # triples are classified only inside the core-set scan
    parents = [
        tracer.spans[parent][0] if parent >= 0 else None
        for name, _, _, parent, _ in tracer.spans
        if name == "embed.classify_pairs_triples"
    ]
    assert parents and set(parents) == {"embed.select_core_set"}
    for (owner, attr), fn in originals.items():
        assert getattr(getattr(prog, owner), attr) is fn, (owner, attr)
