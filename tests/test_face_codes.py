"""Face codes, the one storage format of a host's faces.

A face (x, y, z) of a host with class sizes (n_x, n_y, n_z) is stored as
(x * n_y + y) * n_z + z.  Every benchmark host is cubic, so these tests use
non-cubic sizes, where a code that mixed up n_y and n_z would go wrong.
"""

import itertools

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
            TripartiteHost.from_codes(sizes, [])

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_from_codes_equals_from_faces(self, sizes):
        nx, ny, nz = sizes
        faces = list(itertools.product(range(nx), range(ny), range(nz)))[::3]
        codes = [(x * ny + y) * nz + z for x, y, z in faces]
        a = TripartiteHost(sizes, faces)
        b = TripartiteHost.from_codes(sizes, codes)
        assert a == b and hash(a) == hash(b)
        assert a.codes == frozenset(codes)
        assert a.faces == frozenset(faces)
        assert a.e == len(faces)

    @pytest.mark.parametrize("code", [-1, 3 * 5 * 7, 2.0, True, "4"])
    def test_from_codes_rejects(self, code):
        with pytest.raises(ValueError, match=f"face code {code!r} not an int"):
            TripartiteHost.from_codes((3, 5, 7), [0, code, 1])


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
        zbits = {}
        for x, y, z in host.faces:
            zbits[(x, y)] = zbits.get((x, y), 0) | 1 << z
        index = HostIndex(host)
        assert index.zbits == zbits
        for z in range(host.n_z):
            assert index.link(z).edges == {(x, y) for x, y, zz in host.faces if zz == z}

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_has_matches_tuple_membership(self, sizes):
        host = gen_random_host(*sizes, 0.5, 6)
        faces = host.faces
        box = itertools.product(*(range(-1, n + 1) for n in sizes))
        for x, y, z in box:
            assert host.has(x, y, z) == ((x, y, z) in faces), (x, y, z)


def test_shipping_path_reads_no_face_tuples(monkeypatch):
    """gen, host text, find, certificate text and verify use codes only."""

    def refuse(self):
        raise AssertionError("a shipping stage read TripartiteHost.faces")

    monkeypatch.setattr(TripartiteHost, "faces", property(refuse))
    target = load_target("builtin:triangle")
    host = parse_host(write_host(gen_random_host(9, 10, 11, 1, 0)))
    cert = find_homeomorph(host, target, Config.desk_scale(target, C=2))
    cert = parse_certificate(write_certificate(cert))
    assert verify_certificate(cert, host).passed
