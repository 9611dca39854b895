import functools
import itertools
import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homeofind
from conftest import (
    complete_host,
    labelled_shape,
    problem_of,
    random_host,
    random_threegraph,
    shape_counts,
)
from homeofind.core import (
    Config,
    HomeomorphCertificate,
    ThreeGraph,
    TripartiteHost,
    build_aux_graph,
    covered_pairs,
    euler_characteristic,
)
from homeofind.embed import (
    find_complete_subgraph,
    find_homeomorph,
)
from homeofind.errors import CliqueNotFound
from homeofind.harness import gen_random_host
from homeofind.io import load_target, parse_certificate, write_certificate
from homeofind.verify import VerifyResult, verify_certificate
from oracles import (
    certificate_chi_oracle,
    clique_oracle,
    expectation_oracle,
    forbidden_expectation_oracle,
    relabel_oracle,
    stellar_subdivision,
)

K4 = ThreeGraph(4, frozenset(itertools.combinations(range(4), 3)))
TRIANGLE = ThreeGraph(3, frozenset({(0, 1, 2)}))
BUILTINS = sorted(p.stem for p in (Path(homeofind.__file__).parent / "data").glob("*.tg"))

threegraphs = st.integers(min_value=0, max_value=10 ** 9).map(
    lambda s: random_threegraph(random.Random(s))
)


class TestCanonicalShape:
    """The glued subdivision as ``host_faces`` reads it off the special
    cycles, its vertices and faces by label (``labelled_shape``)."""

    def test_single_face_counts(self):
        assert shape_counts(*labelled_shape(TRIANGLE)) == (10, 21, 12, 1)

    def test_k4_counts(self):
        # 4 + 6 + 4 + 12 vertices
        assert shape_counts(*labelled_shape(K4)) == (26, 72, 48, 2)

    def test_empty(self):
        assert labelled_shape(ThreeGraph(0, frozenset())) == ([], ())

    @settings(max_examples=60, deadline=None)
    @given(threegraphs)
    def test_counts_match_triple_subdivision(self, h):
        v, one, f, _ = shape_counts(*labelled_shape(h))
        pairs = len(covered_pairs(h))
        assert f == 12 * h.e
        assert v == h.vertex_count + pairs + 4 * h.e
        assert one == 2 * pairs + 15 * h.e

    @settings(max_examples=60, deadline=None)
    @given(threegraphs)
    def test_preserves_euler_characteristic(self, h):
        assert shape_counts(*labelled_shape(h))[3] == euler_characteristic(h)

    # a certificate that passes checks 1-4 lists one vertex per vertex of the
    # shape and has its faces and 1-cells, so its chi is the target's: these
    # are the two facts that TestVerifierAgainstOracle's chi test rests on
    @staticmethod
    def assert_chi_counts(h):
        v, _, _, chi = shape_counts(*labelled_shape(h))
        assert chi == euler_characteristic(h)
        assert v == h.v + len(h.aux_graph.v2) + 3 * h.e

    @settings(max_examples=60, deadline=None)
    @given(threegraphs)
    def test_shape_counts_on_random_targets(self, h):
        self.assert_chi_counts(h)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_shape_counts_on_builtins(self, name):
        self.assert_chi_counts(load_target(f"builtin:{name}"))

    @settings(max_examples=60, deadline=None)
    @given(threegraphs)
    def test_faces_are_xyz_triples_four_per_special_cycle(self, h):
        # an X label (a pair- or face-vertex), a Y label (an original
        # vertex) and a Z label (the disk's corner), four per special cycle
        _, faces = labelled_shape(h)
        aux = build_aux_graph(h)
        tag = dict(zip(aux.v2, aux.v2_tags))
        want = []
        for sc in aux.special_cycles:
            a, b, u, w = ("orig", sc.a), ("orig", sc.b), tag[sc.u], tag[sc.w]
            c = ("corner", w[1], u[1])
            want += [(u, a, c), (u, b, c), (w, b, c), (w, a, c)]
        assert faces == tuple(want)

    def test_every_face_has_a_corner_vertex(self):
        for f in labelled_shape(K4)[1]:
            tags = sorted(lbl[0] for lbl in f)
            assert "corner" in tags


def is_stellar(h, labels, faces) -> bool:
    """Whether a shape of ``labels`` and ``faces`` is ``h`` after the three
    rounds of ``stellar_subdivision``: the same vertices and the same
    faces, no label and no face repeated."""
    vertices, want = stellar_subdivision(h)
    got = Counter(map(frozenset, faces))
    return (
        len(set(labels)) == len(labels) and set(labels) == vertices
        and set(got.values()) <= {1} and got == Counter(want)
    )


class TestStellarSubdivision:
    """The faces ``host_faces`` reads off the special cycles are the target
    after three rounds of stellar subdivision, each a PL homeomorphism, so
    that a copy of them in the host is a copy of the target: checked
    against the oracle that applies the rounds, and the oracle against two
    mutant shapes it must refuse."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_shape_is_the_target_subdivided_on_builtins(self, name):
        h = load_target(f"builtin:{name}")
        assert is_stellar(h, *labelled_shape(h))

    @settings(max_examples=60, deadline=None)
    @given(threegraphs)
    def test_shape_is_the_target_subdivided_on_random_targets(self, h):
        assert is_stellar(h, *labelled_shape(h))

    def test_a_dropped_face_is_refused(self):
        labels, faces = labelled_shape(K4)
        assert not is_stellar(K4, labels, faces[1:])

    def test_a_misglued_corner_is_refused_though_every_count_holds(self):
        # the first corner of k4, w = w_{f,e}, glued to the face-vertex of
        # the other face through e instead of f's: v, the 1-cells, the
        # faces and chi are unchanged, (26, 72, 48, 2), but not the shape
        labels, shape = labelled_shape(K4)
        _, f, e = w = labels[K4.vertex_count + len(K4.aux_graph.v2)]
        (other,) = [g for g in K4.faces if g != f and set(e) <= set(g)]
        moved = {("face", f): ("face", other)}
        faces = [
            tuple(moved.get(label, label) for label in face) if w in face else face
            for face in shape
        ]
        assert faces != list(shape)
        assert shape_counts(labels, faces) == shape_counts(labels, shape) == (26, 72, 48, 2)
        assert not is_stellar(K4, labels, faces)


def _good_cert(host=None, target=TRIANGLE, seed=0):
    host = host or complete_host(10)
    k = max(1, 3 * target.e)
    cert = find_homeomorph(host, target, Config(C=1, k_threshold=k, rng_seed=seed))
    return cert, host


class TestVerifierAccepts:
    def test_pipeline_triangle(self):
        cert, host = _good_cert()
        res = verify_certificate(cert, host)
        assert res.passed and res.check is None

    def test_pipeline_k4(self):
        host = complete_host(16)
        cert, _ = _good_cert(host, K4)
        assert verify_certificate(cert, host).passed

    def test_random_host(self):
        rng = random.Random(5)
        host = random_host(rng, 24, 24, 24, 0.8)
        cert = find_homeomorph(host, TRIANGLE, Config(C=2, k_threshold=3, rng_seed=5))
        assert verify_certificate(cert, host).passed


# -- the independence mutations: each flips exactly one check -------------


def mutate_face_outside_host(cert, host):
    """Re-image the first disk center to a Z vertex the host does not have,
    so that the four faces of that disk leave the host."""
    cm = {**cert.embedding.center_map, 0: host.n_z + 5}
    return replace(cert, embedding=replace(cert.embedding, center_map=cm)), host


def mutate_duplicate_v2_image(cert, host):
    v2 = dict(cert.embedding.v2_map)
    keys = sorted(v2)
    v2[keys[0]] = v2[keys[1]]
    return replace(cert, embedding=replace(cert.embedding, v2_map=v2)), host


def mutate_duplicate_centers(cert, host):
    cm = dict(cert.embedding.center_map)
    keys = sorted(cm)
    cm[keys[0]] = cm[keys[1]]
    return replace(cert, embedding=replace(cert.embedding, center_map=cm)), host


def mutate_drop_disk(cert, host):
    """Drop the last special cycle's center, so that one disk has no image."""
    cm = dict(cert.embedding.center_map)
    del cm[max(cm)]
    return replace(cert, embedding=replace(cert.embedding, center_map=cm)), host


def mutate_drop_isolated_vertex(host):
    """A target with an isolated vertex, minus that vertex's image.

    No face shows vertex 3, so only check 1, which reads v1_map's keys,
    notices.
    """
    lonely = ThreeGraph(4, frozenset({(0, 1, 2)}))  # vertex 3 is isolated
    cert = find_homeomorph(host, lonely, Config(C=1, k_threshold=3, rng_seed=1))
    v1 = dict(cert.embedding.v1_map)
    del v1[3]
    return replace(cert, embedding=replace(cert.embedding, v1_map=v1)), host


def swap_images(cert, field, a, b):
    """``cert`` with the images of keys ``a`` and ``b`` of its ``field`` map
    swapped."""
    m = dict(getattr(cert.embedding, field))
    m[a], m[b] = m[b], m[a]
    return replace(cert, embedding=replace(cert.embedding, **{field: m}))


class TestVerifierRejects:
    def test_check4_face_outside_host(self):
        cert, host = _good_cert()
        bad, host = mutate_face_outside_host(cert, host)
        res = verify_certificate(bad, host)
        assert (res.passed, res.check) == (False, 4)
        x, y, _ = cert.host_faces[0]
        assert res.reason == f"certificate face {(x, y, host.n_z + 5)} not a face of the host"

    def test_check1_dropped_disk(self):
        cert, host = _good_cert()
        bad, host = mutate_drop_disk(cert, host)
        assert verify_certificate(bad, host) == VerifyResult(
            False, 1, "center_map keys are not the special-cycle indices 0 to 3e(H) - 1"
        )

    def test_check2_non_injective_v2(self):
        cert, host = _good_cert()
        bad, host = mutate_duplicate_v2_image(cert, host)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 2

    def test_check3_repeated_center(self):
        cert, host = _good_cert()
        bad, host = mutate_duplicate_centers(cert, host)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 3

    def test_check1_dropped_isolated_vertex(self):
        host = complete_host(10)
        bad, host = mutate_drop_isolated_vertex(host)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 1

    def test_wrong_host_rejected(self):
        cert, _ = _good_cert()
        empty = type(complete_host(10))((10, 10, 10), frozenset())
        res = verify_certificate(cert, empty)
        assert not res.passed and res.check == 4


class TestRelabelledCopies:
    # Swapping two images keeps every map keyed, injective and with distinct
    # centers, so the verdict is the swapped copy's faces: on a complete host
    # it is another valid copy, and on the host made of the found copy's
    # faces alone check 4 refuses it.
    @staticmethod
    def swapped_keys(target, field):
        if field != "v2_map":
            return 0, 1
        aux = target.aux_graph
        u = next(u for u, (kind, _) in zip(aux.v2, aux.v2_tags) if kind == "pair")
        w = next(u for u, (kind, _) in zip(aux.v2, aux.v2_tags) if kind == "face")
        return u, w

    @pytest.mark.parametrize("field", ["v2_map", "v1_map", "center_map"])
    @pytest.mark.parametrize("target", [TRIANGLE, K4], ids=["triangle", "k4"])
    def test_swap_is_judged_by_its_faces(self, target, field):
        cert, host = _good_cert(complete_host(16), target)
        own = TripartiteHost(host.class_sizes, cert.host_faces)
        assert verify_certificate(cert, own).passed
        bad = swap_images(cert, field, *self.swapped_keys(target, field))
        assert set(bad.host_faces) != set(cert.host_faces)
        assert verify_certificate(bad, host).passed
        assert verify_certificate(bad, own).check == 4


def rekey(cert, field, old, new):
    """``cert`` with the key ``old`` of its embedding's ``field`` map renamed
    ``new``, the value kept."""
    m = dict(getattr(cert.embedding, field))
    m[new] = m.pop(old)
    return replace(cert, embedding=replace(cert.embedding, **{field: m}))


class TestForeignMapKeys:
    # Each rekeyed map keeps its images, so only check 1, which reads the
    # keys, refuses it.  Center key -1 would map through cycle 2.
    @pytest.mark.parametrize("field, old, new", [
        ("v2_map", 3, 999),
        ("center_map", 0, 99),
        ("center_map", 2, -1),
    ])
    def test_check1_foreign_key(self, field, old, new):
        cert, host = _good_cert()
        res = verify_certificate(rekey(cert, field, old, new), host)
        assert not res.passed and res.check == 1
        assert res.reason.startswith(f"{field} keys are not")


def isolated_vertex_certificate_text(host, v1_line):
    """The text of a certificate for a target with an isolated vertex 3,
    with its ``v1 3 ...`` line replaced by ``v1_line``."""
    lonely = ThreeGraph(4, frozenset({(0, 1, 2)}))
    cert = find_homeomorph(host, lonely, Config(C=1, k_threshold=3, rng_seed=1))
    lines = write_certificate(cert).splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith("v1 3 ")]
    lines[i] = v1_line
    return "\n".join(lines) + "\n"


class TestIsolatedVertexCount:
    # Vertices 3 and 4 are isolated, so no face shows their images: check 1
    # reads v1_map's keys and refuses each mutant.
    LONELY = ThreeGraph(5, frozenset({(0, 1, 2)}))

    @pytest.mark.parametrize("mutate", [
        lambda v1, free: {**v1, 9: free},
        lambda v1, free: {9 if v == 4 else v: y for v, y in v1.items()},
        lambda v1, free: {v: y for v, y in v1.items() if v != 4},
    ], ids=["added", "renamed", "dropped"])
    def test_v1_map_mutant(self, mutate):
        host = complete_host(16)
        cert = find_homeomorph(host, self.LONELY, Config(C=1, k_threshold=3, rng_seed=1))
        v1 = cert.embedding.v1_map
        free = min(set(range(host.n_y)) - set(v1.values()))
        bad = replace(cert, embedding=replace(cert.embedding, v1_map=mutate(v1, free)))
        assert verify_certificate(bad, host) == VerifyResult(
            False, 1, "v1_map does not map exactly the target vertices 0..4"
        )


def map_corruptions(cert, host):
    """``cert`` with one entry of one embedding map dropped, re-keyed to a
    fresh key, or added at a fresh key with an image no entry uses."""
    for field, n in (("v1_map", host.n_y), ("v2_map", host.n_x), ("center_map", host.n_z)):
        m = getattr(cert.embedding, field)
        fresh = max(m) + 1
        free = min(set(range(n)) - set(m.values()))
        yield replace(cert, embedding=replace(cert.embedding, **{field: {**m, fresh: free}}))
        for key in m:
            rest = {k: v for k, v in m.items() if k != key}
            yield replace(cert, embedding=replace(cert.embedding, **{field: rest}))
            yield rekey(cert, field, key, fresh)


def single_entry_mutants(cert, host, rng, count):
    """``count`` copies of ``cert``, each with one entry of one map re-imaged
    (possibly just outside its class), dropped, given another entry's image,
    or added at a fresh key."""
    emb = cert.embedding
    for _ in range(count):
        field, n = rng.choice([("v1_map", host.n_y), ("v2_map", host.n_x), ("center_map", host.n_z)])
        m = dict(getattr(emb, field))
        key = rng.choice(sorted(m))
        kind = rng.choice(["re-image", "drop", "duplicate", "add"])
        if kind == "re-image":
            m[key] = rng.randrange(-1, n + 2)
        elif kind == "drop":
            del m[key]
        elif kind == "duplicate":
            m[key] = m[rng.choice(sorted(m))]
        else:
            m[max(m) + 1] = rng.randrange(-1, n + 2)
        yield replace(cert, embedding=replace(emb, **{field: m}))


# Targets with isolated vertices, whose v1_map mutants no face shows
LONELY = {
    "lonely4": ThreeGraph(4, frozenset({(0, 1, 2)})),
    "lonely5": TestIsolatedVertexCount.LONELY,
}


@functools.cache
def found(name):
    """A found certificate of a builtin on a 48-wide random host, which
    every builtin fits, or of a ``LONELY`` target on a complete host."""
    if name in LONELY:
        host = complete_host(16)
        return find_homeomorph(host, LONELY[name], Config(C=1, k_threshold=3, rng_seed=1)), host
    host = gen_random_host(48, 48, 48, 0.8, 0)
    target = load_target(f"builtin:{name}")
    return find_homeomorph(host, target, Config(C=2, k_threshold=3, rng_seed=0)), host


class TestVerifierAgainstOracle:
    @pytest.mark.parametrize("name", [*BUILTINS, *LONELY])
    def test_verdict_is_the_relabel_oracles(self, name):
        # the verifier passes exactly what the relabel-and-compare oracle
        # accepts on the faces the maps give, and every certificate it
        # passes has the target's chi, counted by the one-cell walk
        cert, host = found(name)
        rng = random.Random(f"mutants of {name}")
        family = [cert, *single_entry_mutants(cert, host, rng, 200), *map_corruptions(cert, host)]
        reached = set()
        for bad in family:
            res = verify_certificate(bad, host)
            reached.add(res.check)
            try:
                faces = bad.host_faces
            except KeyError:  # a map lacks a vertex of the shape: no copy to compare
                assert res.check == 1
                continue
            assert res.passed == relabel_oracle(bad, host, faces), res
            if res.passed:
                assert certificate_chi_oracle(bad) == euler_characteristic(bad.target)
        assert reached == {None, 1, 2, 3, 4}


class TestHostFaces:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_four_faces_per_special_cycle_in_cycle_order(self, name):
        # the faces bench outcomes are keyed on: (u, a, c), (u, b, c),
        # (w, b, c) and (w, a, c) of each disk, mapped through the embedding
        cert, _ = found(name)
        emb = cert.embedding
        cycles = cert.target.aux_graph.special_cycles
        assert len(cert.host_faces) == 4 * len(cycles) == 12 * cert.target.e
        for ci, sc in enumerate(cycles):
            c = emb.center_map[ci]
            ya, yb = emb.v1_map[sc.a], emb.v1_map[sc.b]
            xu, xw = emb.v2_map[sc.u], emb.v2_map[sc.w]
            want = ((xu, ya, c), (xu, yb, c), (xw, yb, c), (xw, ya, c))
            assert cert.host_faces[4 * ci:4 * ci + 4] == want

    @pytest.mark.parametrize("name", BUILTINS)
    def test_check4_names_the_first_face_of_the_first_bad_disk(self, name):
        # the middle and the last disk moved off Z, each to a center of its
        # own: check 4 names the middle disk's first face, (x[u], y[a], c),
        # so the cycle order of host_faces decides the message
        cert, host = found(name)
        mid, last = len(cert.target.aux_graph.special_cycles) // 2, 3 * cert.target.e - 1
        cm = {**cert.embedding.center_map, mid: host.n_z + 5, last: host.n_z + 6}
        bad = replace(cert, embedding=replace(cert.embedding, center_map=cm))
        x, y, _ = cert.host_faces[4 * mid]
        assert bad.host_faces[4 * mid] == (x, y, host.n_z + 5)
        assert verify_certificate(bad, host) == VerifyResult(
            False, 4, f"certificate face {(x, y, host.n_z + 5)} not a face of the host"
        )

    @pytest.mark.parametrize("field, reason", [
        ("v1_map", "v1_map does not map exactly the target vertices 0..3"),
        ("v2_map", "v2_map keys are not the auxiliary graph's V2"),
        ("center_map", "center_map keys are not the special-cycle indices 0 to 3e(H) - 1"),
    ])
    def test_a_map_without_a_key_a_cycle_needs_stops_at_check1(self, field, reason):
        # the last cycle's a, w or index dropped from its map: host_faces
        # raises KeyError, and check 1 refuses the certificate before
        # check 4 reads its faces
        cert, host = found("k4")
        last = 3 * cert.target.e - 1
        sc = cert.target.aux_graph.special_cycles[last]
        m = dict(getattr(cert.embedding, field))
        del m[{"v1_map": sc.a, "v2_map": sc.w, "center_map": last}[field]]
        bad = replace(cert, embedding=replace(cert.embedding, **{field: m}))
        with pytest.raises(KeyError):
            bad.host_faces
        assert verify_certificate(bad, host) == VerifyResult(False, 1, reason)

    def test_a_certificate_is_its_target_and_embedding(self):
        assert [f.name for f in fields(HomeomorphCertificate)] == ["target", "embedding"]


class TestIsolatedVertexImage:
    # No face shows an isolated vertex, so only check 1's reading of
    # v1_map itself refuses these.
    @pytest.mark.parametrize("v1_line, reason", [
        ("v1 3 999", "sends vertex 3 to 999, outside Y = [0, 12)"),
        ("v1 3 -1", "sends vertex 3 to -1, outside Y = [0, 12)"),
        ("v1 99 5", "does not map exactly the target vertices 0..3"),
    ])
    def test_check1_bad_isolated_vertex_image(self, v1_line, reason):
        host = complete_host(12)
        cert = parse_certificate(isolated_vertex_certificate_text(host, v1_line))
        res = verify_certificate(cert, host)
        assert not res.passed and res.check == 1
        assert reason in res.reason


class TestOutOfRangeFaces:
    def test_face_outside_its_class_does_not_alias(self):
        # a center re-imaged to z = n_z + 5 puts (x, y, n_z + 5) in the
        # copy, whose naive code (x * n_y + y) * n_z + z is that of the host
        # face (x, y + 1, 5) of the complete host
        cert, host = _good_cert()
        bad, _ = mutate_face_outside_host(cert, host)
        x, y, z = bad.host_faces[0]
        assert z == host.n_z + 5 and y + 1 < host.n_y and host.has(x, y + 1, 5)
        assert not host.has(x, y, z)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 4
        assert f"{(x, y, z)}" in res.reason


class TestExpectationOracles:
    def test_six_faces_three_z(self):
        from homeofind.core import TripartiteHost

        host = TripartiteHost(
            (3, 3, 3),
            frozenset({(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (2, 2, 1), (0, 2, 2)}),
        )
        assert expectation_oracle(host) == Fraction(6, 3)

    def test_empty_host(self):
        from homeofind.core import TripartiteHost

        assert expectation_oracle(TripartiteHost((2, 2, 2), frozenset())) == 0

    def test_random_exact(self):
        rng = random.Random(11)
        host = random_host(rng, 7, 6, 5, 0.4)
        assert expectation_oracle(host) == Fraction(host.e, 5)

    def test_forbidden_identity_random(self):
        rng = random.Random(19)
        host = random_host(rng, 6, 6, 6, 0.6)
        for K in (0, 1, 3):
            avg = forbidden_expectation_oracle(host, K)
            assert avg >= 0

    def test_forbidden_complete_host_zero_when_k_small(self):
        host = complete_host(5)
        # every 4-cycle has 5 disks, so with K = 4 nothing is forbidden
        assert forbidden_expectation_oracle(host, 4) == 0
        # with K = 5 everything is: C(5,2)^2 cycles in each of 5 links
        assert forbidden_expectation_oracle(host, 5) == Fraction(100 * 5, 5)


class TestCliqueOracle:
    def test_trivial_cases(self):
        pg = problem_of((0, 1, 2), frozenset())
        assert clique_oracle(pg, 0)
        assert clique_oracle(pg, 3)
        assert not clique_oracle(pg, 4)

    def test_rejects_large_ground_set(self):
        with pytest.raises(ValueError):
            clique_oracle(problem_of(tuple(range(41)), frozenset()), 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9), st.integers(3, 5))
    def test_search_agrees_with_oracle(self, seed, t):
        rng = random.Random(seed)
        verts = tuple(range(10))
        bad = frozenset(
            tr for tr in itertools.combinations(verts, 3) if rng.random() < 0.3
        )
        pg = problem_of(verts, bad)
        expect = clique_oracle(pg, t)
        try:
            found = find_complete_subgraph(pg, t)
        except CliqueNotFound:
            assert not expect
        else:
            assert expect
            assert len(found) == t
            for tr in itertools.combinations(sorted(found), 3):
                assert tr not in bad
