import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_threegraph
from homeofind.core import (
    Config,
    ThreeGraph,
    bits,
    build_aux_graph,
    covered_pairs,
    euler_characteristic,
    one_cells,
)
from homeofind.verify import canonical_glued_subdivision

K4 = ThreeGraph(4, frozenset(itertools.combinations(range(4), 3)))
TRIANGLE = ThreeGraph(3, frozenset({(0, 1, 2)}))


def threegraphs(max_v=9, max_e=12):
    return st.integers(min_value=0, max_value=2 ** 30).map(
        lambda s: random_threegraph(random.Random(s), max_v, max_e)
    )


def one_cells_by_enumeration(h: ThreeGraph) -> set:
    cells = set()
    for f in h.faces:
        cells.update(itertools.combinations(f, 2))
    return cells


class TestBits:
    @given(
        st.one_of(
            st.just(0),
            st.integers(min_value=0, max_value=999).map(lambda i: 1 << i),
            st.integers(min_value=0, max_value=2 ** 1000 - 1),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_lists_the_set_bits_ascending(self, mask):
        assert bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestThreeGraph:
    def test_faces_are_normalized(self):
        h = ThreeGraph(5, frozenset({(2, 0, 4)}))
        assert h.faces == frozenset({(0, 2, 4)})

    def test_rejects_degenerate_face(self):
        with pytest.raises(ValueError):
            ThreeGraph(5, frozenset({(1, 1, 2)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ThreeGraph(3, frozenset({(0, 1, 3)}))

    @pytest.mark.parametrize(
        "vertex_count, faces",
        [
            (2.5, ()),
            (3.0, ()),
            (True, ()),
            (Fraction(3), ()),
            (3, [(0, 1, 2.0)]),
            (3, [(0, True, 2)]),
            (3, [(0, 1, Fraction(2))]),
        ],
    )
    def test_rejects_non_int(self, vertex_count, faces):
        # ints only, as TripartiteHost and Config take them; a float or bool
        # that slipped through would surface later as a TypeError in the search
        with pytest.raises(ValueError):
            ThreeGraph(vertex_count, frozenset(faces))


class TestCoveredPairs:
    def test_single_face(self):
        assert covered_pairs(TRIANGLE) == [(0, 1), (0, 2), (1, 2)]

    def test_k4_all_pairs(self):
        # oracle: exhaustive enumeration of pairs inside faces
        assert covered_pairs(K4) == sorted(itertools.combinations(range(4), 2))

    def test_empty(self):
        assert covered_pairs(ThreeGraph(5, frozenset())) == []

    @given(threegraphs())
    @settings(max_examples=50, deadline=None)
    def test_matches_enumeration(self, h):
        assert set(covered_pairs(h)) == one_cells_by_enumeration(h)


def one_cells_brute(faces) -> set:
    """Every (a, b) with a < b and both a and b in one face."""
    return {(a, b) for f in faces for a in f for b in f if a < b}


class TestOneCells:
    @given(threegraphs())
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_enumeration(self, h):
        # the same complex as ints, as canonical-style labels and as the
        # class-tagged vertices of a host face (x, y, z)
        labelled = [[("orig", v) if v % 2 else ("pair", (v, v + 1)) for v in f] for f in h.faces]
        tagged = [(("x", x), ("y", y), ("z", z)) for x, y, z in h.faces]
        for faces in (h.faces, labelled, tagged):
            assert one_cells(faces) == one_cells_brute(faces)

    def test_empty(self):
        assert one_cells([]) == set()


class TestEulerCharacteristic:
    def test_k4_is_sphere(self):
        assert euler_characteristic(K4) == 2

    def test_single_face_is_disk(self):
        assert euler_characteristic(TRIANGLE) == 1

    def test_isolated_vertices_count(self):
        assert euler_characteristic(ThreeGraph(5, frozenset())) == 5


def triple_subdivision(h: ThreeGraph) -> ThreeGraph:
    """The triple subdivision of ``h`` as a plain 3-graph on 0..v-1."""
    canon = canonical_glued_subdivision(h)
    index = {lbl: i for i, lbl in enumerate(canon.labels)}
    faces = frozenset(tuple(index[lbl] for lbl in f) for f in canon.faces)
    return ThreeGraph(canon.vertex_count, faces)


class TestTripleSubdivision:
    def test_single_face_counts(self):
        u = triple_subdivision(TRIANGLE)
        assert u.vertex_count == 10
        assert u.e == 12
        assert len(one_cells_by_enumeration(u)) == 21
        assert euler_characteristic(u) == 1

    @given(threegraphs())
    @settings(max_examples=60, deadline=None)
    def test_counting_identities(self, h):
        u = triple_subdivision(h)
        pairs = len(covered_pairs(h))
        assert u.e == 12 * h.e
        assert u.vertex_count == h.vertex_count + pairs + 4 * h.e
        assert len(covered_pairs(u)) == 2 * pairs + 15 * h.e
        assert len(one_cells_by_enumeration(u)) == 2 * pairs + 15 * h.e


def aux_edges(aux):
    """The auxiliary graph's edges (a, u), a in V1 and u in V2, read off the
    tags: u is joined to the two ends of its pair or the three of its face."""
    return {(a, u) for u, (_, ends) in zip(aux.v2, aux.v2_tags) for a in ends}


class TestAuxGraph:
    def test_k4_counts(self):
        aux = build_aux_graph(K4)
        assert len(aux.v2) == 10  # 6 pair vertices + 4 face vertices
        assert len(aux_edges(aux)) == 24
        assert len(aux.special_cycles) == 12

    def test_single_face_counts(self):
        aux = build_aux_graph(TRIANGLE)
        assert len(aux.v2) == 4
        assert len(aux_edges(aux)) == 9
        assert len(aux.special_cycles) == 3

    def test_empty(self):
        aux = build_aux_graph(ThreeGraph(4, frozenset()))
        assert aux.v2 == ()
        assert aux.special_cycles == ()

    def test_special_cycles_of_a_face(self):
        aux = build_aux_graph(TRIANGLE)
        got = {(sc.a, sc.b, sc.edge) for sc in aux.special_cycles}
        assert got == {(0, 1, (0, 1)), (1, 2, (1, 2)), (2, 0, (0, 2))}
        # all three share the face vertex and use the right pair vertices
        tags = dict(zip(aux.v2, aux.v2_tags))
        for sc in aux.special_cycles:
            assert tags[sc.w] == ("face", (0, 1, 2))
            assert tags[sc.u] == ("pair", sc.edge)

    @given(threegraphs())
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, h):
        aux = build_aux_graph(h)
        pairs = len(covered_pairs(h))
        assert len(aux.v2) == pairs + h.e
        assert len(aux_edges(aux)) == 2 * pairs + 3 * h.e
        assert len(aux.special_cycles) == 3 * h.e
        # bipartite between v1 and v2; v2 degrees are 2 (pair) or 3 (face)
        deg = {u: 0 for u in aux.v2}
        for a, u in aux_edges(aux):
            assert a in set(aux.v1) and u in deg
            deg[u] += 1
        for u, tag in zip(aux.v2, aux.v2_tags):
            assert deg[u] == (2 if tag[0] == "pair" else 3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            Config(C=0)
        with pytest.raises(ValueError):
            Config(delta=0)
        with pytest.raises(ValueError):
            Config(delta=Fraction(6, 5))
        with pytest.raises(ValueError):
            Config(k_threshold=0)

    @pytest.mark.parametrize("kw", [
        dict(k_threshold=3.5), dict(k_threshold=3.0), dict(k_threshold=True),
        dict(retry_limit=True), dict(retry_limit=2.5), dict(retry_limit=Fraction(4)),
    ])
    def test_integer_fields_reject_floats_and_bools(self, kw):
        # a float K would enter every admissibility comparison
        with pytest.raises(ValueError, match="must be a positive integer"):
            Config(**kw)

    @pytest.mark.parametrize("kw", [
        dict(C=float("inf")), dict(C=0.1), dict(C=2.0), dict(C=True), dict(C="2"),
        dict(delta=True), dict(delta=0.2), dict(delta="1/5"),
    ])
    def test_rationals_reject_floats_bools_and_strings(self, kw):
        # a float would convert silently (0.1 is not 1/10) or overflow
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            Config(**kw)

    @pytest.mark.parametrize("seed", [1.5, "1", True, None])
    def test_rng_seed_rejects_all_but_ints(self, seed):
        # a bool would run as seed 0 or 1, the others fail only after the search
        with pytest.raises(ValueError, match="^rng_seed must be an integer, got "):
            Config(rng_seed=seed)

    @pytest.mark.parametrize("seed", [0, -9, 2 ** 70])
    def test_rng_seed_takes_every_int(self, seed):
        assert Config(rng_seed=seed).rng_seed == seed

    def test_paper_defaults(self):
        cfg = Config.paper_defaults(K4)
        assert cfg.C == 2000 * 4 ** 6
        assert cfg.k_for(K4) == 192

    def test_desk_scale_floor(self):
        cfg = Config.desk_scale(K4)
        assert cfg.k_threshold == 12
        assert cfg.k_for(K4) == 12

    def test_k_default_from_target(self):
        assert Config().k_for(K4) == 3 * 64
