"""The z-mask table, the one storage format of a host's faces.

A host with class sizes (n_x, n_y, n_z) keeps, per (x, y) with a face, the
bitmask over Z of its faces, keyed by x * n_y + y.  Every benchmark host is
cubic, so these tests use non-cubic sizes, where a key that mixed up n_x
and n_y would go wrong.
"""

import itertools
import random
import tracemalloc

import pytest

from homeofind.core import Config, TripartiteHost
from homeofind.embed import find_homeomorph
from homeofind.harness import gen_random_host
from homeofind.io import (
    load_target,
    parse_certificate,
    parse_host,
    write_certificate,
    write_host,
)
from homeofind.links import HostIndex
from homeofind.verify import verify_certificate

NON_CUBIC = [(3, 5, 7), (7, 1, 4), (4, 7, 1), (1, 6, 3)]


def brute_table(sizes, faces):
    table = {}
    for x, y, z in faces:
        table[x * sizes[1] + y] = table.get(x * sizes[1] + y, 0) | 1 << z
    return table


class TestConstruction:
    @pytest.mark.parametrize("face", [(0.5, 0, 0), (0, 1.0, 0), (0, 0, True), (False, 0, 0)])
    def test_rejects_non_integer_coordinates(self, face):
        with pytest.raises(ValueError, match=r"face \(.*\) has a non-integer coordinate"):
            TripartiteHost((2, 2, 2), [face])

    def test_names_first_bad_face_of_a_one_shot_iterable(self):
        faces = iter([(0, 0, 0), (1, 2, 0), (5, 0, 0), (0, 9, 0)])
        with pytest.raises(ValueError, match=r"^face \(1, 2, 0\) out of class bounds$"):
            TripartiteHost((2, 2, 2), faces)

    @pytest.mark.parametrize("sizes", [(2, -1, 2), (2, 2), (2.0, 2, 2), (True, 2, 2)])
    def test_rejects_bad_class_sizes(self, sizes):
        with pytest.raises(ValueError, match="class sizes"):
            TripartiteHost(sizes, [])
        with pytest.raises(ValueError, match="class sizes"):
            TripartiteHost._from_table(sizes, {})

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_table_matches_brute_force(self, sizes):
        faces = list(itertools.product(*map(range, sizes)))[::3]
        a = TripartiteHost(sizes, faces)
        assert a.zmasks == brute_table(sizes, faces)
        assert 0 not in a.zmasks.values()
        assert a.faces == frozenset(faces)
        assert a.e == len(faces)
        # by value: the order of the faces and a repeated face do not matter
        shuffled = faces + faces[:2]
        random.Random(1).shuffle(shuffled)
        b = TripartiteHost(sizes, shuffled)
        assert a == b and hash(a) == hash(b)
        c = TripartiteHost._from_table(sizes, dict(reversed(a.zmasks.items())))
        assert a == c and hash(a) == hash(c)
        if faces[1:]:
            assert a != TripartiteHost(sizes, faces[1:])
        assert a != TripartiteHost(sizes[::-1], [])
        assert (a == (a.class_sizes, a.zmasks)) is False  # no host, no equality
        assert "_hash" not in vars(a)  # hashed by value, nothing cached


class TestNonCubicEncoding:
    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_round_trip_through_host_text(self, sizes):
        host = gen_random_host(*sizes, 0.5, 3)
        assert parse_host(write_host(host)) == host

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_sorted_faces(self, sizes):
        host = gen_random_host(*sizes, 0.5, 4)
        assert host.sorted_faces() == sorted(host.faces)
        # generation draws once per potential face, in lexicographic order
        expected = gen_random_host(*sizes, 1, 0).sorted_faces()
        assert expected == list(itertools.product(*map(range, sizes)))

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_index_matches_brute_force(self, sizes):
        host = gen_random_host(*sizes, 0.5, 5)
        index = HostIndex(host)
        assert index.host.zmasks == brute_table(sizes, host.faces)
        for z in range(host.n_z):
            link = index.link(z)
            edges = {(x, y) for x, y, zz in host.faces if zz == z}
            assert link.x_masks == tuple(
                sum(1 << y for y in range(host.n_y) if (x, y) in edges) for x in range(host.n_x)
            )
            assert link.y_masks == tuple(
                sum(1 << x for x in range(host.n_x) if (x, y) in edges) for y in range(host.n_y)
            )
            assert link.e == len(edges)

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    @pytest.mark.parametrize("p", [0, 0.05, 0.5, 1])
    def test_occupied_is_the_or_of_the_face_zs(self, sizes, p):
        host = gen_random_host(*sizes, p, 8)
        assert host.occupied == sum({1 << z for _, _, z in host.faces})
        if p == 0:  # the empty host
            assert host.occupied == 0

    def test_index_holds_only_its_host_and_byte_columns(self):
        host = gen_random_host(3, 5, 7, 0.5, 9)
        index = HostIndex(host)
        assert vars(index) == {"host": host}
        index.link_size(0)
        assert vars(index).keys() == {"host", "_columns"}

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_has_matches_tuple_membership(self, sizes):
        host = gen_random_host(*sizes, 0.5, 6)
        faces = host.faces
        box = itertools.product(*(range(-1, n + 1) for n in sizes))
        for x, y, z in box:
            assert host.has(x, y, z) == ((x, y, z) in faces), (x, y, z)


@pytest.mark.parametrize(
    "sizes",
    NON_CUBIC + [(3, 4, 0), (3, 4, 1), (0, 4, 5), (2, 0, 3), (9, 8, 70), (5, 3, 9), (3, 2, 129)],
)
@pytest.mark.parametrize("p", [0, 0.05, 0.5, 1])
def test_link_sizes_match_brute_force(sizes, p):
    """e(L_z) off the byte columns of the table's masks, on hosts with
    empty (x, y), with no Z or no faces at all, and with n_z = 9 and 129,
    one z past a byte boundary."""
    host = gen_random_host(*sizes, p, 7)
    index = HostIndex(host)
    want = [sum(1 for f in host.faces if f[2] == z) for z in range(host.n_z)]
    assert [index.link_size(z) for z in range(host.n_z)] == want
    for z in (-1, host.n_z):
        with pytest.raises(IndexError):
            index.link_size(z)


def test_link_sizes_and_links_across_byte_columns():
    """Faces only at z in {7, 8, 64, 1000}, the last and first bits of
    byte columns, with n_z = 10**12: e(L_z) and the link of every z up to
    one byte past the highest match brute force, and z beyond are empty."""
    rng = random.Random(11)
    sizes = (6, 5, 10 ** 12)
    faces = [
        (x, y, z)
        for z in (7, 8, 64, 1000)
        for x, y in itertools.product(range(6), range(5))
        if rng.random() < 0.5
    ]
    host = TripartiteHost(sizes, faces)
    index = HostIndex(host)
    assert host.occupied == sum(1 << z for z in (7, 8, 64, 1000))
    for z in list(range(1010)) + [10 ** 12 - 1]:
        edges = {(x, y) for x, y, zz in faces if zz == z}
        assert index.link_size(z) == len(edges), z
        link = index.link(z)
        assert link.x_masks == tuple(
            sum(1 << y for y in range(5) if (x, y) in edges) for x in range(6)
        ), z
        assert link.y_masks == tuple(
            sum(1 << x for x in range(6) if (x, y) in edges) for y in range(5)
        ), z
    for z in (-1, 10 ** 12):
        with pytest.raises(IndexError):
            index.link_size(z)
        with pytest.raises(IndexError):
            index.link(z)


def test_generated_host_retains_under_a_megabyte():
    """A dense n = 60 host is one mask per (x, y), not a set of face codes."""
    tracemalloc.start()
    try:
        host = gen_random_host(60, 60, 60, 0.9, 11)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert host.e > 0.85 * 60 ** 3
    assert retained < 1 << 20


def test_shipping_path_reads_no_face_tuples(monkeypatch):
    """gen, host text, find, certificate text and verify use the table only."""

    def refuse(self):
        raise AssertionError("a shipping stage read TripartiteHost.faces")

    monkeypatch.setattr(TripartiteHost, "faces", property(refuse))
    target = load_target("builtin:triangle")
    host = parse_host(write_host(gen_random_host(9, 10, 11, 1, 0)))
    cert = find_homeomorph(host, target, Config.desk_scale(target, C=2))
    cert = parse_certificate(write_certificate(cert))
    assert verify_certificate(cert, host).passed
