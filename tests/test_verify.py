import itertools
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homeofind
from conftest import complete_host, problem_of, random_host, random_threegraph
from homeofind.core import (
    Config,
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
from homeofind.verify import VerifyResult, canonical_glued_subdivision, verify_certificate
from oracles import (
    certificate_chi_oracle,
    clique_oracle,
    expectation_oracle,
    forbidden_expectation_oracle,
)

K4 = ThreeGraph(4, frozenset(itertools.combinations(range(4), 3)))
TRIANGLE = ThreeGraph(3, frozenset({(0, 1, 2)}))
BUILTINS = sorted(p.stem for p in (Path(homeofind.__file__).parent / "data").glob("*.tg"))

threegraphs = st.integers(min_value=0, max_value=10 ** 9).map(
    lambda s: random_threegraph(random.Random(s))
)


class TestCanonicalShape:
    def test_single_face_counts(self):
        canon = canonical_glued_subdivision(TRIANGLE)
        assert canon.vertex_count == 10
        assert canon.face_count == 12
        assert canon.one_cell_count() == 21
        assert canon.euler_characteristic() == 1

    def test_k4_counts(self):
        canon = canonical_glued_subdivision(K4)
        assert canon.vertex_count == 26  # 4 + 6 + 4 + 12
        assert canon.face_count == 48
        assert canon.one_cell_count() == 72
        assert canon.euler_characteristic() == 2

    def test_empty(self):
        canon = canonical_glued_subdivision(ThreeGraph(0, frozenset()))
        assert canon.vertex_count == 0
        assert canon.face_count == 0

    @settings(max_examples=60, deadline=None)
    @given(threegraphs)
    def test_counts_match_triple_subdivision(self, h):
        canon = canonical_glued_subdivision(h)
        pairs = len(covered_pairs(h))
        assert canon.face_count == 12 * h.e
        assert canon.vertex_count == h.vertex_count + pairs + 4 * h.e
        assert canon.one_cell_count() == 2 * pairs + 15 * h.e

    @settings(max_examples=60, deadline=None)
    @given(threegraphs)
    def test_preserves_euler_characteristic(self, h):
        canon = canonical_glued_subdivision(h)
        assert canon.euler_characteristic() == euler_characteristic(h)

    # a certificate that passes checks 1-6 lists one vertex per vertex of the
    # kept shape and has its faces and 1-cells, so its chi is the target's:
    # these are the two facts that TestCheck6AgainstOracle's property rests on
    @staticmethod
    def assert_chi_counts(h):
        shape = h.canonical_subdivision
        assert shape.euler_characteristic() == euler_characteristic(h)
        assert shape.vertex_count == h.v + len(h.aux_graph.v2) + 3 * h.e

    @settings(max_examples=60, deadline=None)
    @given(threegraphs)
    def test_check6_counts_on_random_targets(self, h):
        self.assert_chi_counts(h)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_check6_counts_on_builtins(self, name):
        self.assert_chi_counts(load_target(f"builtin:{name}"))

    @settings(max_examples=60, deadline=None)
    @given(threegraphs)
    def test_added_vertices_carry_the_aux_tags(self, h):
        # pair- and face-vertices are named by the auxiliary graph's own
        # tags, in its V2 order; the disk centers follow
        canon = canonical_glued_subdivision(h)
        aux = build_aux_graph(h)
        added = canon.labels[h.vertex_count:]
        assert added[:len(aux.v2)] == aux.v2_tags
        assert all(label[0] == "corner" for label in added[len(aux.v2):])

    def test_every_face_has_a_corner_vertex(self):
        canon = canonical_glued_subdivision(K4)
        for f in canon.faces:
            tags = sorted(lbl[0] for lbl in f)
            assert "corner" in tags


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


# -- the six independence mutations: each flips exactly one check ----------


def mutate_face_outside_host(cert, host):
    """Point one certificate face at a Z vertex the host does not have."""
    faces = list(cert.host_faces)
    x, y, z = faces[0]
    faces[0] = (x, y, host.n_z + 5)
    return replace(cert, host_faces=tuple(faces)), host


def mutate_drop_face(cert, host):
    return replace(cert, host_faces=cert.host_faces[:-1]), host


def mutate_duplicate_v2_image(cert, host):
    v2 = dict(cert.embedding.v2_map)
    keys = sorted(v2)
    v2[keys[0]] = v2[keys[1]]
    return replace(cert, embedding=replace(cert.embedding, v2_map=v2)), host


def mutate_duplicate_centers(cert, host):
    cm = dict(cert.embedding.center_map)
    keys = sorted(cm)
    cm[keys[0]] = cm[keys[1]]
    # keep the original faces so checks 1-3 still pass
    return replace(cert, embedding=replace(cert.embedding, center_map=cm)), host


def mutate_swap_centers(cert, host, target):
    """Swap two disk centers in the map while leaving the faces alone.

    Counts, injectivity and distinctness all survive, but relabeling now
    attaches the wrong corner vertices, so the glued faces no longer match
    the canonical subdivision.
    """
    cm = dict(cert.embedding.center_map)
    keys = sorted(cm)
    cm[keys[0]], cm[keys[1]] = cm[keys[1]], cm[keys[0]]
    emb = replace(cert.embedding, center_map=cm)
    return replace(cert, embedding=emb), host


def mutate_swap_pair_and_face_images(cert, host, target):
    """Swap the X images of a pair-vertex and a face-vertex."""
    aux = build_aux_graph(target)
    u = next(u for u, (kind, _) in zip(aux.v2, aux.v2_tags) if kind == "pair")
    w = next(u for u, (kind, _) in zip(aux.v2, aux.v2_tags) if kind == "face")
    v2 = dict(cert.embedding.v2_map)
    v2[u], v2[w] = v2[w], v2[u]
    return replace(cert, embedding=replace(cert.embedding, v2_map=v2)), host


def mutate_swap_y_images(cert, host, target):
    """Swap the Y images of target vertices 0 and 1."""
    v1 = dict(cert.embedding.v1_map)
    v1[0], v1[1] = v1[1], v1[0]
    return replace(cert, embedding=replace(cert.embedding, v1_map=v1)), host


def mutate_drop_isolated_vertex(host):
    """A target with an isolated vertex, minus that vertex's image.

    Checks 1-5 only look at faces, so the mutilated certificate sails
    through them; only check 6, which reads v1_map's keys, notices.
    """
    lonely = ThreeGraph(4, frozenset({(0, 1, 2)}))  # vertex 3 is isolated
    cert = find_homeomorph(host, lonely, Config(C=1, k_threshold=3, rng_seed=1))
    v1 = dict(cert.embedding.v1_map)
    del v1[3]
    return replace(cert, embedding=replace(cert.embedding, v1_map=v1)), host


class TestVerifierRejects:
    def test_check1_face_outside_host(self):
        cert, host = _good_cert()
        bad, host = mutate_face_outside_host(cert, host)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 1

    def test_check2_missing_face(self):
        cert, host = _good_cert()
        bad, host = mutate_drop_face(cert, host)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 2

    def test_check3_non_injective_v2(self):
        cert, host = _good_cert()
        bad, host = mutate_duplicate_v2_image(cert, host)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 3

    def test_check4_repeated_center(self):
        cert, host = _good_cert()
        bad, host = mutate_duplicate_centers(cert, host)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 4

    def test_check5_swapped_centers(self):
        host = complete_host(16)
        cert, _ = _good_cert(host, K4)
        bad, host = mutate_swap_centers(cert, host, K4)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 5

    # Swapped images keep the faces, counts and injectivity, so checks 1-4
    # pass; only the relabeling sees that the maps no longer fit the faces.
    @pytest.mark.parametrize("mutate", [mutate_swap_pair_and_face_images, mutate_swap_y_images])
    @pytest.mark.parametrize("target", [TRIANGLE, K4], ids=["triangle", "k4"])
    def test_check5_swapped_images(self, mutate, target):
        cert, host = _good_cert(complete_host(16), target)
        bad, host = mutate(cert, host, target)
        res = verify_certificate(bad, host)
        assert (res.passed, res.check) == (False, 5)
        assert res.reason == "relabeled faces differ from the canonical glued subdivision"

    def test_check5_face_outside_embedding_image(self):
        # a face moved to an X-vertex no V2 vertex maps to: still a host
        # face, with the count, maps and centers untouched
        cert, host = _good_cert()
        x = min(set(range(host.n_x)) - set(cert.embedding.v2_map.values()))
        _, y, z = cert.host_faces[0]
        bad = replace(cert, host_faces=((x, y, z), *cert.host_faces[1:]))
        res = verify_certificate(bad, host)
        assert (res.passed, res.check) == (False, 5)
        assert res.reason == f"face {(x, y, z)} has a vertex outside the embedding image"

    def test_check6_dropped_isolated_vertex(self):
        host = complete_host(10)
        bad, host = mutate_drop_isolated_vertex(host)
        res = verify_certificate(bad, host)
        assert not res.passed and res.check == 6

    def test_wrong_host_rejected(self):
        cert, _ = _good_cert()
        empty = type(complete_host(10))((10, 10, 10), frozenset())
        res = verify_certificate(cert, empty)
        assert not res.passed and res.check == 1


def rekey(cert, field, old, new):
    """``cert`` with the key ``old`` of its embedding's ``field`` map renamed
    ``new``, the value kept."""
    m = dict(getattr(cert.embedding, field))
    m[new] = m.pop(old)
    return replace(cert, embedding=replace(cert.embedding, **{field: m}))


class TestForeignMapKeys:
    # Checks 1-4 read only the maps' values, so each rekeyed certificate
    # reaches check 5.  Center key -1 would relabel through cycle 2.
    @pytest.mark.parametrize("field, old, new", [
        ("v2_map", 3, 999),
        ("center_map", 0, 99),
        ("center_map", 2, -1),
    ])
    def test_check5_foreign_key(self, field, old, new):
        cert, host = _good_cert()
        res = verify_certificate(rekey(cert, field, old, new), host)
        assert not res.passed and res.check == 5
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
    # Vertices 3 and 4 are isolated, so no face shows their images and
    # checks 1-5 pass: check 6 reads v1_map's keys and refuses each mutant.
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
            False, 6, "v1_map does not map exactly the target vertices 0..4"
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


class TestCheck6AgainstOracle:
    # Found certificates: triangle, k4 and rp2 on two seeded hosts, and
    # targets with isolated vertices, whose v1_map mutants pass checks 1-5
    LONELY = {
        "lonely4": ThreeGraph(4, frozenset({(0, 1, 2)})),
        "lonely5": TestIsolatedVertexCount.LONELY,
    }
    FAMILY = [
        (name, seed) for name in ("triangle", "k4", "rp2") for seed in (0, 1)
    ] + [(name, 1) for name in LONELY]

    @classmethod
    def found(cls, name, seed):
        if name in cls.LONELY:
            target = cls.LONELY[name]
            host, cfg = complete_host(16), Config(C=1, k_threshold=3, rng_seed=seed)
        else:
            target = load_target(f"builtin:{name}")
            host = gen_random_host(32, 32, 32, 0.9, seed)
            cfg = Config(C=2, k_threshold=3, rng_seed=seed)
        return find_homeomorph(host, target, cfg), host

    @pytest.mark.parametrize("name, seed", FAMILY)
    def test_count_agrees_with_the_one_cell_walk(self, name, seed):
        # every certificate the verifier passes has the target's chi, counted
        # by the oracle's one-cell walk, and wherever checks 1-5 pass, check 6
        # refuses exactly a v1_map not keyed by 0..v-1 or with an image
        # outside Y
        cert, host = self.found(name, seed)
        target = cert.target
        mutants = [
            (cert, host),
            mutate_face_outside_host(cert, host),
            mutate_drop_face(cert, host),
            mutate_duplicate_v2_image(cert, host),
            mutate_duplicate_centers(cert, host),
            mutate_swap_centers(cert, host, target),
            mutate_drop_isolated_vertex(complete_host(16)),
        ] + [(bad, host) for bad in map_corruptions(cert, host)]
        reached = set()
        for bad, bad_host in mutants:
            res = verify_certificate(bad, bad_host)
            if not res.passed and res.check < 6:
                continue
            reached.add(res.check)
            if res.passed:
                assert certificate_chi_oracle(bad) == euler_characteristic(bad.target)
            v1 = bad.embedding.v1_map
            bad_v1 = set(v1) != set(range(bad.target.v)) or not all(
                0 <= y < bad_host.n_y for y in v1.values()
            )
            assert (res.check == 6) == bad_v1
        assert {None, 6} <= reached


class TestIsolatedVertexImage:
    # No face shows an isolated vertex, so checks 1-5 pass each of these;
    # only check 6 reads v1_map itself.
    @pytest.mark.parametrize("v1_line, reason", [
        ("v1 3 999", "sends vertex 3 to 999, outside Y = [0, 12)"),
        ("v1 3 -1", "sends vertex 3 to -1, outside Y = [0, 12)"),
        ("v1 99 5", "does not map exactly the target vertices 0..3"),
    ])
    def test_check6_bad_isolated_vertex_image(self, v1_line, reason):
        host = complete_host(12)
        cert = parse_certificate(isolated_vertex_certificate_text(host, v1_line))
        res = verify_certificate(cert, host)
        assert not res.passed and res.check == 6
        assert reason in res.reason


class TestOutOfRangeFaces:
    def test_face_outside_its_class_does_not_alias(self):
        # (0, 3, 0) and (1, 0, 0) share the naive code (x * n_y + y) * n_z + z
        # = 12 at sizes (2, 3, 4); y = 3 is outside Y
        host = TripartiteHost((2, 3, 4), frozenset({(1, 0, 0)}))
        assert host.has(1, 0, 0)
        assert not host.has(0, 3, 0)
        cert, _ = _good_cert()
        forged = replace(cert, host_faces=((0, 3, 0),) + cert.host_faces[1:])
        res = verify_certificate(forged, host)
        assert not res.passed and res.check == 1
        assert "(0, 3, 0)" in res.reason


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
