"""Acceptance gate: seven end-to-end criteria, one pass/fail line each.

Each criterion prints its verdict directly to the terminal (outside pytest's
capture) so the summary survives in piped output, then asserts.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from conftest import complete_host, problem_of, random_host, random_threegraph
import homeofind
from homeofind.core import (
    Config,
    build_aux_graph,
    covered_pairs,
    euler_characteristic,
)
from homeofind.embed import find_complete_subgraph, find_homeomorph
from homeofind.errors import CliqueNotFound, PipelineError
from homeofind.harness import SweepSpec, run_sweep
from homeofind.io import load_target, write_host
from homeofind.links import HostIndex, count_forbidden
from homeofind.verify import canonical_glued_subdivision, verify_certificate
from oracles import (
    clique_oracle,
    count_disks,
    expectation_oracle,
    forbidden_expectation_oracle,
)

from test_verify import (
    mutate_drop_disk,
    mutate_drop_isolated_vertex,
    mutate_duplicate_centers,
    mutate_duplicate_v2_image,
    mutate_face_outside_host,
)


def _report(capfd, num: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capfd.disabled():
        print(f"ACCEPTANCE {num}: {verdict} - {detail}", flush=True)


def test_criterion_1_structural_identities(capfd):
    t0 = time.perf_counter()
    failures = []
    for seed in range(200):
        h = random_threegraph(random.Random(seed), max_v=9, max_e=12)
        pairs = len(covered_pairs(h))
        aux = build_aux_graph(h)
        canon = canonical_glued_subdivision(h)
        chi = euler_characteristic(h)
        ok = (
            len(aux.special_cycles) == 3 * h.e
            and all(len(aux.neighbors_of_v2(u)) in (2, 3) for u in aux.v2)
            and canon.vertex_count == h.v + pairs + 4 * h.e
            and canon.one_cell_count() == 2 * pairs + 15 * h.e
            and canon.face_count == 12 * h.e
            and canon.euler_characteristic() == chi
        )
        if not ok:
            failures.append(seed)
    elapsed = time.perf_counter() - t0
    passed = not failures and elapsed < 10.0
    _report(
        capfd, 1,
        passed,
        f"structural identities on 200 targets, {len(failures)} failures, "
        f"{elapsed:.1f}s (limit 10s)",
    )
    assert passed, (failures, elapsed)


def test_criterion_2_expectation_identities(capfd):
    bad = []
    for seed in range(100):
        rng = random.Random(1000 + seed)
        nx, ny, nz = (rng.randint(2, 30) for _ in range(3))
        host = random_host(rng, nx, ny, nz, rng.uniform(0.05, 0.6))
        try:
            # both oracles assert their identities internally, in exact
            # rational arithmetic
            avg = expectation_oracle(host)
            assert avg == Fraction(host.e, nz)
            forbidden_expectation_oracle(host, K=3)
        except AssertionError:
            bad.append(seed)
    _report(
        capfd, 2,
        not bad,
        f"link-size and forbidden-count identities exact on 100 hosts, "
        f"{len(bad)} violations",
    )
    assert not bad, bad


def test_criterion_3_oracle_equivalence(capfd):
    mismatches = 0
    for seed in range(50):
        rng = random.Random(2000 + seed)
        n = rng.randint(4, 12)
        host = random_host(rng, n, n, n, rng.uniform(0.2, 0.5))
        index = HostIndex(host)
        K = rng.randint(0, 3)
        for z in range(n):
            # every 4-cycle of the link, its disk count by face scan; the
            # shipping disk_mask and count_forbidden must agree with it
            link = index.link(z)
            by_pair = {}
            for x1, x2 in itertools.combinations(range(n), 2):
                common = link.gamma(x1) & link.gamma(x2)
                for y1, y2 in itertools.combinations(range(n), 2):
                    if common >> y1 & common >> y2 & 1:
                        d = count_disks(host, (x1, x2, y1, y2))
                        if host.disk_mask(x1, x2, y1, y2).bit_count() != d:
                            mismatches += 1
                        if d <= K:
                            by_pair[(y1, y2)] = by_pair.get((y1, y2), 0) + 1
            if count_forbidden(link, K) != (sum(by_pair.values()), by_pair):
                mismatches += 1

    clique_disagreements = 0
    for seed in range(200):
        rng = random.Random(3000 + seed)
        s = rng.randint(3, 20)
        t = rng.randint(2, 5)
        verts = tuple(range(s))
        badset = frozenset(
            tr for tr in itertools.combinations(verts, 3) if rng.random() < 0.25
        )
        pg = problem_of(verts, badset)
        expect = clique_oracle(pg, t)
        try:
            found = find_complete_subgraph(pg, t)
        except CliqueNotFound:
            found = None
        if (found is not None) != expect:
            clique_disagreements += 1
        elif found is not None and any(
            tr in badset for tr in itertools.combinations(sorted(found), 3)
        ):
            clique_disagreements += 1

    passed = mismatches == 0 and clique_disagreements == 0
    _report(
        capfd, 3,
        passed,
        f"disk masks and forbidden counts vs brute force: {mismatches} mismatches; "
        f"clique search vs exhaustive oracle: {clique_disagreements} disagreements",
    )
    assert passed


def test_criterion_4_end_to_end_soundness(capfd):
    # torus7's glued subdivision needs |V2| = 21 + 14 = 35 distinct X images
    # and, with K = 3e(H) = 42, cycles bounding more than 42 disks: it cannot
    # fit a 30-wide host, which must reject it up front by capacity.  43 is
    # the smallest complete host it fits: 35 <= 43 X-vertices, 43 > K disks
    # per cycle, and 42 centers besides z.
    small, large = complete_host(30), complete_host(43)
    cases = [
        ("triangle", small, 12),
        ("k4", small, 48),
        ("torus7", large, 168),
        ("torus7", small, None),  # None: must fail at the capacity check
    ]
    t0 = time.perf_counter()
    outcomes, expected = {}, {}
    for name, host, want in cases:
        key = f"{name}@{host.n_x}"
        expected[key] = "ok" if want is not None else "failed at capacity"
        target = load_target(f"builtin:{name}")
        cfg = Config(C=1, k_threshold=3 * target.e, rng_seed=0)
        try:
            cert = find_homeomorph(host, target, cfg)
        except PipelineError as exc:
            outcomes[key] = f"failed at {exc.stage}"
            continue
        res = verify_certificate(cert, host)
        if not res.passed:
            outcomes[key] = f"verify check {res.check} failed"
        elif len(cert.host_faces) != want:
            outcomes[key] = f"{len(cert.host_faces)} faces, wanted {want}"
        else:
            outcomes[key] = "ok"
    elapsed = time.perf_counter() - t0
    passed = outcomes == expected and elapsed < 60.0
    detail = ", ".join(f"{k}: {v}" for k, v in outcomes.items())
    _report(capfd, 4, passed, f"{detail}; {elapsed:.1f}s (limit 60s)")
    assert passed, outcomes


def test_criterion_5_mutation_suite(capfd):
    host = complete_host(16)
    triangle = load_target("builtin:triangle")
    cert3 = find_homeomorph(host, triangle, Config(C=1, k_threshold=3, rng_seed=0))

    mutants = [
        (1, mutate_drop_isolated_vertex(host)),
        (1, mutate_drop_disk(cert3, host)),
        (2, mutate_duplicate_v2_image(cert3, host)),
        (3, mutate_duplicate_centers(cert3, host)),
        (4, mutate_face_outside_host(cert3, host)),
    ]
    detected = 0
    wrong = []
    for check, (bad, h) in mutants:
        res = verify_certificate(bad, h)
        if not res.passed and res.check == check:
            detected += 1
        else:
            wrong.append((check, res))
    _report(
        capfd, 5,
        detected == len(mutants),
        f"{detected}/{len(mutants)} corruptions caught by their own check",
    )
    assert detected == len(mutants), wrong


def test_criterion_6_threshold_behavior(capfd):
    n, trials, seed = 40, 50, 99
    overrides = {"C": "2", "k_threshold": 3}

    def rate(a, b):
        spec = SweepSpec(
            target="builtin:triangle", n_values=(n,), a=Fraction(a), b=Fraction(b),
            trials=trials, seed=seed, cfg_overrides=overrides,
        )
        return run_sweep(spec)[0].successes

    sweep = [rate(a, "1/5") for a in ("1/5", "1/2", "1")]
    full = rate("1", "0")
    empty = rate("0", "0")
    monotone = all(x <= y for x, y in zip(sweep, sweep[1:]))
    passed = monotone and full == trials and empty == 0
    _report(
        capfd, 6,
        passed,
        f"successes/{trials} at a=0.2,0.5,1.0 (p=a*n^-1/5): {sweep}; "
        f"p=1: {full}/{trials}; p=0: {empty}/{trials}",
    )
    assert passed, (sweep, full, empty)


def test_criterion_7_determinism(capfd, tmp_path):
    hostp = tmp_path / "h.tph"
    hostp.write_text(write_host(complete_host(10)))
    # the subprocess imports the same package as this test, installed or not
    src = str(Path(homeofind.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)

    def run_find(out):
        cmd = [
            sys.executable, "-m", "homeofind.cli", "find",
            "--target", "builtin:triangle", "--host", str(hostp),
            "--C", "1", "--k", "3", "--seed", "7", "--out", str(out),
        ]
        r = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        return out.read_bytes()

    finds = [run_find(tmp_path / f"f{i}.cert") for i in range(3)]

    spec = SweepSpec(
        target="builtin:triangle", n_values=(12,), a=Fraction(1), b=Fraction(0),
        trials=2, seed=5, cfg_overrides={"C": "1", "k_threshold": 3},
    )
    sweeps = []
    for i in range(3):
        d = tmp_path / f"s{i}"
        run_sweep(spec, d)
        sweeps.append(
            tuple(f.read_bytes() for f in sorted(d.iterdir()))
        )
    passed = len(set(finds)) == 1 and len(set(sweeps)) == 1
    _report(
        capfd, 7,
        passed,
        "3x find and 3x sweep byte-identical with fixed seeds",
    )
    assert passed
