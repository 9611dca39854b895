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
from hypothesis import given, settings
from hypothesis import strategies as st

from homeofind import io as host_io
from homeofind.core import Config, TripartiteHost
from homeofind.embed import find_homeomorph
from homeofind.errors import PipelineError
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
from oracles import host_faces, link_y_transpose, table

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
            TripartiteHost._from_table(sizes, (), ())

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_table_matches_brute_force(self, sizes):
        faces = list(itertools.product(*map(range, sizes)))[::3]
        a = TripartiteHost(sizes, faces)
        assert table(a) == brute_table(sizes, faces)
        assert 0 not in table(a).values()
        assert host_faces(a) == sorted(faces)
        assert a.e == len(faces)
        # by value: the order of the faces and a repeated face do not matter
        shuffled = faces + faces[:2]
        random.Random(1).shuffle(shuffled)
        b = TripartiteHost(sizes, shuffled)
        assert a == b and hash(a) == hash(b)
        by_key = dict(sorted(brute_table(sizes, faces).items()))
        c = TripartiteHost._from_table(sizes, by_key, tuple(by_key.values()))
        assert list(table(c)) == sorted(table(c))
        assert a == c and hash(a) == hash(c)
        if faces[1:]:
            assert a != TripartiteHost(sizes, faces[1:])
        assert a != TripartiteHost(sizes[::-1], [])
        assert (a == (a.class_sizes, table(a))) is False  # no host, no equality
        assert "_hash" not in vars(a)  # hashed by value, nothing cached

    def test_every_constructor_keeps_keys_ascending(self):
        """Table keys ascend whichever way a host is made: from shuffled
        faces, parsed from text whose lines come out of order (written run
        lines reversed, or unpadded one-mask lines, some overlapping an
        entry, shuffled, so read entry by entry) or drawn by
        ``gen_random_host``; and each gives the same host."""
        sizes, rng = (5, 7, 9), random.Random(31)
        base = gen_random_host(*sizes, 0.3, 32)  # some (x, y) have no face
        assert 0 < len(table(base)) < 5 * 7
        faces = host_faces(base)
        rng.shuffle(faces)
        head, *runs = write_host(base).splitlines()
        # an odd key's lowest face also on a line of its own
        one_mask = [
            f"m {key // 7} {key % 7} {part:x}"
            for key, mask in table(base).items()
            for part in ((mask & -mask, mask) if key % 2 else (mask,))
        ]
        rng.shuffle(one_mask)
        hosts = {
            "gen_random_host": base,
            "shuffled faces": TripartiteHost(sizes, faces),
            "reversed runs": parse_host("\n".join([head, *runs[::-1]])),
            "shuffled one-mask lines": parse_host("\n".join([head, *one_mask])),
        }
        for how, host in hosts.items():
            assert list(table(host)) == sorted(table(host)), how
            assert host == base, how
            assert write_host(host) == write_host(base), how


def _made_every_way(sizes, p, seed):
    """One host made by each constructor: ``gen_random_host``, shuffled
    faces, written text (read whole), its run lines reversed and its
    entries as unpadded one-mask lines, an odd key's lowest face also on a
    line of its own, reversed (both read line by line).  A written text
    with no entry has no run line, and is read line by line too."""
    base = gen_random_host(*sizes, p, seed)
    faces = host_faces(base)
    random.Random(seed).shuffle(faces)
    written = write_host(base)
    head, *runs = written.splitlines()
    one_mask = [
        f"m {key // sizes[1]} {key % sizes[1]} {part:x}"
        for key, mask in table(base).items()
        for part in ((mask & -mask, mask) if key % 2 else (mask,))
    ]
    by_line = ["\n".join([head, *runs[::-1]]), "\n".join([head, *one_mask[::-1]])]
    assert (host_io._written_table(written) is not None) == bool(base.masks)
    assert all(host_io._written_table(text) is None for text in by_line)
    return base, {
        "gen_random_host": base,
        "shuffled faces": TripartiteHost(sizes, faces),
        "written text": parse_host(written),
        "reversed runs": parse_host(by_line[0]),
        "reversed one-mask lines": parse_host(by_line[1]),
    }


class TestTableArrays:
    """The table is two parallel sequences, ``keys`` and ``masks``, the
    same whichever constructor made it: keys ascend, they are a ``range``
    exactly when every (x, y) has an entry, no mask is 0, and ``has`` and
    ``disk_mask`` match a brute force over the faces on full tables and
    on tables with gaps."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 12)),
        st.sampled_from([0.1, 0.3, 0.7, 1]),
        st.integers(0, 2 ** 32),
    )
    def test_every_constructor_gives_one_table(self, sizes, p, seed):
        base, hosts = _made_every_way(sizes, p, seed)
        nx, ny, nz = sizes
        faces = set(host_faces(base))
        by_key = brute_table(sizes, faces)
        full = len(by_key) == nx * ny
        for how, host in hosts.items():
            keys, masks = host.keys, host.masks
            assert list(keys) == sorted(by_key) and len(masks) == len(keys), how
            assert (type(keys) is range) == full, how
            assert type(keys) in (range, tuple) and type(masks) is tuple, how
            assert 0 not in masks, how
            assert host == base and hash(host) == hash(base), how
            for x, y, z in itertools.product(*(range(-1, n + 1) for n in sizes)):
                assert host.has(x, y, z) == ((x, y, z) in faces), (how, x, y, z)
            for xa, xb, ya, yb in itertools.product(range(nx), range(nx), range(ny), range(ny)):
                want = [by_key.get(x * ny + y, 0) for x in (xa, xb) for y in (ya, yb)]
                assert host.disk_mask(xa, xb, ya, yb) == want[0] & want[1] & want[2] & want[3], how

    @pytest.mark.parametrize("p, full", [(1, True), (0.1, False)])
    def test_full_and_gapped_tables_are_both_made(self, p, full):
        """Both kinds of table arise from every constructor: a full one at
        p = 1 and one with gaps at p = 0.1."""
        _, hosts = _made_every_way((3, 4, 5), p, 7)
        assert {type(host.keys) is range for host in hosts.values()} == {full}


class TestNonCubicEncoding:
    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_round_trip_through_host_text(self, sizes):
        host = gen_random_host(*sizes, 0.5, 3)
        assert parse_host(write_host(host)) == host

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_sorted_faces(self, sizes):
        host = gen_random_host(*sizes, 0.5, 4)
        box = itertools.product(*map(range, sizes))
        assert host_faces(host) == [f for f in box if host.has(*f)]
        # generation draws once per potential face, in lexicographic order
        expected = host_faces(gen_random_host(*sizes, 1, 0))
        assert expected == list(itertools.product(*map(range, sizes)))

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_index_matches_brute_force(self, sizes):
        host = gen_random_host(*sizes, 0.5, 5)
        index = HostIndex(host)
        faces = host_faces(host)
        assert table(index.host) == brute_table(sizes, faces)
        for z in range(host.n_z):
            link = index.link(z)
            edges = {(x, y) for x, y, zz in faces if zz == z}
            assert tuple(map(link.gamma, range(host.n_x))) == tuple(
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
        assert host.occupied == sum({1 << z for _, _, z in host_faces(host)})
        if p == 0:  # the empty host
            assert host.occupied == 0

    def test_index_holds_only_its_host_and_byte_columns(self):
        host = gen_random_host(3, 5, 7, 0.5, 9)
        index = HostIndex(host)
        assert vars(index) == {"host": host}
        index.link(0)
        assert vars(index) == {"host": host}
        # the byte columns and link sides are the host's: a second index
        # reads the same ones
        columns = vars(host)["byte_columns"]
        HostIndex(host).link(1)
        assert host.byte_columns is columns
        assert HostIndex(host).link(0).y_masks is host.link_y_masks[0]

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_has_matches_tuple_membership(self, sizes):
        host = gen_random_host(*sizes, 0.5, 6)
        faces = set(host_faces(host))
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
    faces = host_faces(host)
    want = [sum(1 for f in faces if f[2] == z) for z in range(host.n_z)]
    assert [host.link_size(z) for z in range(host.n_z)] == want
    for z in (-1, host.n_z):
        with pytest.raises(IndexError):
            host.link_size(z)


def test_link_sizes_and_links_across_byte_columns():
    """Faces only at z in {7, 8, 64, 1000}, the last and first bits of
    byte columns, with n_z = 10**12: e(L_z) and the link of every z up to
    one byte past the highest match brute force, and z beyond are empty.
    A link's e(L_z) is the host's, the popcount of its Y side."""
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
        assert host.link_size(z) == len(edges), z
        link = index.link(z)
        assert link.e == host.link_size(z) == sum(map(int.bit_count, host.link_y(z))), z
        assert tuple(map(link.gamma, range(6))) == tuple(
            sum(1 << y for y in range(5) if (x, y) in edges) for x in range(6)
        ), z
        assert link.y_masks == tuple(
            sum(1 << x for x in range(6) if (x, y) in edges) for y in range(5)
        ), z
    for z in (-1, 10 ** 12):
        with pytest.raises(IndexError):
            host.link_size(z)
        with pytest.raises(IndexError):
            index.link(z)


def _faces_at(zs, sizes, seed):
    rng = random.Random(seed)
    return [
        (x, y, z) for z in zs for x, y in itertools.product(range(sizes[0]), range(sizes[1]))
        if rng.random() < 0.5
    ]


@pytest.mark.parametrize(
    "faces",
    [
        _faces_at((0, 7, 8, 63), (6, 5), 3),  # one packed word per mask
        _faces_at((1, 8, 12), (6, 5), 5),  # two of its bytes in use
        _faces_at((64, 65, 127, 128, 1000), (6, 5), 4),  # wider masks, cut one by one
        [],  # an empty table
        [(2, 3, 0), (2, 3, 9), (2, 3, 63)],  # one entry, one word
        [(4, 1, 8), (4, 1, 64)],  # one entry, two words wide
    ],
    ids=["one-word", "one-word-narrow", "wide", "empty", "one-entry", "one-entry-wide"],
)
def test_byte_columns_match_brute_force(faces):
    """The byte columns, read as ints, against brute force: byte i of
    column j is byte j of the i-th mask, and e(L_z), the per-entry flags
    of z and the Y side of L_z match a face filter for every z up to one
    byte past the highest face, on masks that pack into one 64-bit word
    (all 8 bytes in use, or 2), wider ones, an empty table and one-entry
    tables."""
    sizes = (6, 5, 1010)
    host = TripartiteHost(sizes, faces)
    masks = list(table(host).values())
    top = host.occupied.bit_length()
    columns = host.byte_columns
    assert len(columns) == (top + 7) // 8
    for j, column in enumerate(columns):
        assert type(column) is int
        assert column.to_bytes(len(masks), "little") == bytes(m >> 8 * j & 255 for m in masks), j
    for z in range(top + 8):
        edges = {(x, y) for x, y, zz in faces if zz == z}
        assert host.link_size(z) == len(edges), z
        assert host._holds(z) == bytes(m >> z & 1 for m in masks), z
        assert host.link_y(z) == tuple(
            sum(1 << x for x in range(sizes[0]) if (x, y) in edges) for y in range(sizes[1])
        ), z
    for z in (-1, sizes[2]):
        with pytest.raises(IndexError):
            host.link_size(z)
        with pytest.raises(IndexError):
            host._holds(z)


def _strided_host(kind: str) -> TripartiteHost:
    """A host whose Y sides are read by strides, full (every (x, y) has a
    face) or with gaps, made in each way that could leave its table out of
    flat order: a table that is full but unsorted would give wrong reads."""
    sizes = (5, 7, 9)
    if kind == "no-x":
        return TripartiteHost((0, 7, 9), [])
    p, full = (0.15, False) if kind.startswith("gapped") else (0.7, True)
    base = gen_random_host(*sizes, p, 41)
    assert (len(table(base)) == 5 * 7) == full
    if kind.endswith("shuffled"):
        faces = host_faces(base)
        random.Random(42).shuffle(faces)
        return TripartiteHost(sizes, faces)
    if kind.endswith("reversed-text"):
        head, *runs = write_host(base).splitlines()
        return parse_host("\n".join([head, *runs[::-1]]))
    return base


STRIDED_KINDS = [
    "full", "full-shuffled", "full-reversed-text", "gapped", "gapped-shuffled",
    "gapped-reversed-text", "no-x",
]


@pytest.mark.parametrize("kind", STRIDED_KINDS)
def test_link_y_matches_transpose(kind):
    host = _strided_host(kind)
    for z in range(host.n_z):
        assert host.link_y(z) == link_y_transpose(host, z), z


@pytest.mark.parametrize("kind", STRIDED_KINDS)
def test_entry_sizes_match_brute_force(kind):
    host = _strided_host(kind)
    nx, ny, nz = host.class_sizes
    assert host.entry_sizes == [
        sum(host.has(x, y, z) for z in range(nz)) for x in range(nx) for y in range(ny)
    ]


def test_gapped_link_is_not_sized_from_the_header():
    """One entry in a 3000 x 3000 header: its link's Y side is the one
    mask at y = 7, built without n_x * n_y flags."""
    host = parse_host("tph 3000 3000 1\nm 5 7 1\n")
    tracemalloc.start()
    try:
        y_masks = HostIndex(host).link(0).y_masks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y_masks == tuple(1 << 5 if y == 7 else 0 for y in range(3000))
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "sizes, p",
    [((5, 7, 9), 0.15), ((6, 5, 70), 0.3), ((4, 3, 200), 0.05), ((3, 4, 130), 1), ((2, 2, 66), 0), ((0, 3, 5), 1)],
)
def test_e_counts_the_faces(sizes, p):
    """e, a popcount per byte column, is the number of faces: on tables
    with gaps, masks wider than 64 bits, a full wide table and empty
    ones."""
    host = gen_random_host(*sizes, p, 43)
    assert host.e == len(host_faces(host))


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


def test_shipping_path_reads_no_face_tuples():
    """gen, host text, find, certificate text and verify use the table
    only: a host has no face tuples to read."""
    assert not hasattr(TripartiteHost, "faces") and not hasattr(TripartiteHost, "sorted_faces")
    target = load_target("builtin:triangle")
    host = parse_host(write_host(gen_random_host(9, 10, 11, 1, 0)))
    cert = find_homeomorph(host, target, Config.desk_scale(target, C=2))
    cert = parse_certificate(write_certificate(cert))
    assert verify_certificate(cert, host).passed


class TestHostCaches:
    """The host keeps its byte columns and the Y side of every link built,
    so that each search of one host reuses them; none of that may change
    an answer, the host's value or its hash."""

    # at n = 36, between them: certificates, and refusals at the z-scan and
    # at the V2 placement
    HOSTS = [(0.45, 4), (0.5, 1), (0.7, 3)]
    TARGETS = ("triangle", "k4", "rp2")

    @staticmethod
    def answer(host, target):
        """A find's certificate text, or its refusal's stage and message."""
        cfg = Config(C=2, k_threshold=3 * target.e, rng_seed=7)
        try:
            return write_certificate(find_homeomorph(host, target, cfg))
        except PipelineError as exc:
            return exc.stage, str(exc)

    def test_warm_host_answers_as_a_fresh_one(self):
        targets = [load_target(f"builtin:{t}") for t in self.TARGETS]
        stages, built = set(), 0
        for p, seed in self.HOSTS:
            host = gen_random_host(36, 36, 36, p, seed)
            # each target twice, in alternating order, on the one host
            for target in targets + targets[::-1]:
                want = self.answer(parse_host(write_host(host)), target)
                assert self.answer(host, target) == want, (p, seed, target)
                stages.add(want[0] if isinstance(want, tuple) else "found")
            # the finds did fill the host's caches
            assert "byte_columns" in vars(host)
            built += len(host.link_y_masks)
            # warm caches are no part of the host's value
            fresh = parse_host(write_host(host))
            assert host == fresh and hash(host) == hash(fresh)
            # and they are plain ints and int tuples, with no index in them
            assert all(type(c) is int for c in host.byte_columns)
            for z, y_masks in host.link_y_masks.items():
                assert type(z) is int and type(y_masks) is tuple
                assert all(type(m) is int for m in y_masks)
            assert not any(isinstance(v, HostIndex) for v in vars(host).values())
        assert stages == {"found", "embed_v2", "pick_link_vertex"}
        assert built

    @pytest.mark.parametrize("sizes", NON_CUBIC)
    def test_x_side_is_the_transpose_of_the_y_side(self, sizes):
        host = gen_random_host(*sizes, 0.5, 10)
        index = HostIndex(host)
        for z in range(host.n_z):
            link = index.link(z)
            assert link.n_x == host.n_x
            assert all(
                (link.gamma(x) >> y & 1) == (link.y_masks[y] >> x & 1)
                for x in range(host.n_x)
                for y in range(host.n_y)
            )
            assert link.e == sum(link.gamma(x).bit_count() for x in range(host.n_x))
