"""Canonical data model for 3-graphs viewed as 2-complexes.

A 3-graph is a 3-uniform hypergraph; identifying each edge with a triangular
face turns it into a two-dimensional simplicial complex.  This module holds
the immutable value types shared by the whole pipeline, the certificate
types ``Embedding`` and ``HomeomorphCertificate`` among them, together with
the target-side construction: a target's bipartite auxiliary graph, whose
special 4-cycles mark where 4-disks must be glued.  ``build_aux_graph``
is the one builder of a target's combinatorics: the search embeds the
graph, and the glued subdivision every certificate must realize is read
off its special cycles, one 4-disk per cycle
(``HomeomorphCertificate.host_faces``).  The graph is a fact of the
target, worked out once when first read and kept on the ``ThreeGraph``
(``aux_graph``), so that a find, its certificate's I/O and every verify
of one target object share one copy.  The certificate path (``io``,
``verify``) imports this module alone.

It also defines the one storage format of a host's faces, its z-mask
table: a ``TripartiteHost`` with class sizes (n_x, n_y, n_z) keeps, for
every (x, y), the bitmask over Z of the z that complete (x, y) to a face,
0 where (x, y) is on no face, in the tuple ``masks`` at the flat index
``x * n_y + y``.  The table has one slot per (x, y) and nothing per face,
so an entry is one index and the entries of one y are one stride.  Facts
of the table live on the host and are worked out here alone, each kept
once first read: ``e``, ``occupied`` (the OR of its masks), its byte
columns (``byte_columns``, each one int whose byte i is a byte of the
mask of flat index i), the Y side of each link L_z read from them
(``link_y``, kept in ``link_y_masks``) and the size of every entry
(``entry_sizes``), so that every search of one host shares them.  Bit z
of the masks is one AND and one popcount of column z // 8, so the host
answers e(L_z) (``link_size``) and e (a popcount per column) without a
per-entry step, and the Y side of L_z is one strided read of those flags
per y.  It also answers the columns of a Y-pair (``pair_columns``): per
x, the AND of the entries (x, ya) and (x, yb), so that the 4-disks of the
cycle on x, x' and the pair are the AND of two of them.  Every stage
reads the host through it: ``io`` writes and parses it (``from_table``
takes over a table that ``io`` or generation has built), and ``links``
and ``embed`` read link sizes, link Y sides, entry sizes and pair columns
off it.

Every set the pipeline handles is an int bitmask like those z-sets: a link's
neighbourhoods, Gamma(x), a search domain, a cycle's center set.  ``bits``
is the one function that lists a mask's set bits, for every module, and
``flags`` and ``mask_of`` turn a mask into one byte 0 or 1 per bit and
back.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from itertools import combinations, compress, count, repeat
from operator import and_, or_
from typing import Iterable

Face = tuple[int, int, int]
Pair = tuple[int, int]

# a binary digit of a mask as the byte 0 or 1, and back
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def flags(mask: int) -> bytes:
    """Byte i is 1 where bit i of the non-negative ``mask`` is set, else 0,
    up to its highest set bit (0 gives the one byte 0): its binary digits,
    reversed, as bytes."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)


def mask_of(flag_bytes: bytes) -> int:
    """The bitmask with bit i set where byte i of ``flag_bytes`` is 1 (the
    others 0), and 0 for no bytes: the bytes as binary digits, reversed,
    read in C.  The inverse of ``flags``."""
    return int(flag_bytes.translate(_FLAG_DIGITS)[::-1] or b"0", 2)


def bits(mask: int) -> list[int]:
    """The positions of the set bits of the non-negative ``mask``, ascending,
    found in C: its flags select from the counter 0, 1, 2, ..."""
    return list(compress(count(), flags(mask)))


def _norm_face(face: Iterable[int]) -> Face:
    a, b, c = sorted(face)
    if not (type(a) is int and type(b) is int and type(c) is int):
        raise ValueError(f"face {face!r} has a non-integer vertex")
    if a == b or b == c:
        raise ValueError(f"face {face!r} has repeated vertices")
    return (a, b, c)


@dataclass(frozen=True)
class ThreeGraph:
    """A finite 3-uniform hypergraph on vertices 0..vertex_count-1.

    ``aux_graph`` is worked out on first read by ``build_aux_graph`` and
    kept on the object (see the module docstring).  Equality and hashing
    are by value, whatever has been worked out.
    """

    vertex_count: int
    faces: frozenset[Face]

    def __post_init__(self):
        # ints, not floats or bools, as in TripartiteHost and Config
        if type(self.vertex_count) is not int:
            raise ValueError(f"vertex_count must be an integer, got {self.vertex_count!r}")
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        object.__setattr__(self, "faces", frozenset(_norm_face(f) for f in self.faces))
        for f in self.faces:
            if f[2] >= self.vertex_count or f[0] < 0:
                raise ValueError(f"face {f} out of range")

    @property
    def v(self) -> int:
        return self.vertex_count

    @property
    def e(self) -> int:
        return len(self.faces)

    def sorted_faces(self) -> list[Face]:
        return sorted(self.faces)

    @cached_property
    def aux_graph(self) -> AuxGraph:
        return build_aux_graph(self)


def _class_sizes(class_sizes) -> tuple[int, int, int]:
    sizes = tuple(class_sizes)
    if len(sizes) != 3 or not all(type(n) is int and n >= 0 for n in sizes):
        raise ValueError(f"class sizes must be three non-negative integers, got {sizes}")
    return sizes


@dataclass(frozen=True, init=False)
class TripartiteHost:
    """A 3-partite 3-graph with classes X, Y, Z and per-class 0-based indices.

    Faces are stored as the z-mask table (see the module docstring): bit z
    of ``masks[x * n_y + y]`` marks the face (x, y, z), and ``masks`` has
    n_x * n_y slots, 0 where (x, y) is on no face, so equal tables are
    equal field by field: equality and hashing are by value, whatever has
    been worked out.  Treat the table as read-only.
    ``TripartiteHost(class_sizes, faces)`` takes any iterable of (x, y, z)
    triples of ints, names the first bad face in input order and ORs each
    into its slot; a face's mask takes z + 1 bits, so memory grows with
    n_x * n_y and with the largest z given.  ``has`` tests one face, by
    one index.  ``e``, ``occupied`` (the OR of the masks),
    ``byte_columns``, ``entry_sizes`` and ``link_y_masks`` are worked out
    here alone and kept as plain ints, int lists and int tuples.  Bit z of
    the masks is one AND of byte column z // 8, shifted by z % 8, with the
    int whose byte i is 1 for each slot: ``link_size(z)`` is that int's
    popcount, e(L_z), and ``e`` the sum of the columns' popcounts.
    ``link_y(z)``, built once per z, reads those bytes at stride n_y, one
    read per y, for the Y side of L_z, and ``pair_columns`` reads the two
    entries of every x at stride n_y, in one ``map``.
    """

    class_sizes: tuple[int, int, int]
    masks: tuple[int, ...]

    def __init__(self, class_sizes, faces: Iterable[Face]):
        nx, ny, nz = sizes = _class_sizes(class_sizes)
        slots = [0] * (nx * ny)
        for x, y, z in faces:
            if not (type(x) is int and type(y) is int and type(z) is int):
                raise ValueError(f"face {(x, y, z)} has a non-integer coordinate")
            if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
                raise ValueError(f"face {(x, y, z)} out of class bounds")
            slots[x * ny + y] |= 1 << z
        self._take(sizes, tuple(slots))

    @classmethod
    def from_table(cls, class_sizes, masks: tuple[int, ...]) -> "TripartiteHost":
        """A host that takes over ``masks``, a tuple.  Only the sizes are
        checked: the caller vouches for n_x * n_y masks, in flat order,
        each below 2**n_z."""
        host = object.__new__(cls)
        host._take(_class_sizes(class_sizes), masks)
        return host

    def _take(self, sizes: tuple[int, int, int], masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "class_sizes", sizes)
        object.__setattr__(self, "masks", masks)

    @property
    def n_x(self) -> int:
        return self.class_sizes[0]

    @property
    def n_y(self) -> int:
        return self.class_sizes[1]

    @property
    def n_z(self) -> int:
        return self.class_sizes[2]

    @cached_property
    def e(self) -> int:
        """The number of faces: a popcount per byte column, not per entry."""
        return sum(map(int.bit_count, self.byte_columns))

    @cached_property
    def occupied(self) -> int:
        """The OR of the table's masks: bit z is set when z is on a face."""
        return reduce(or_, self.masks, 0)

    @cached_property
    def byte_columns(self) -> list[int]:
        """The masks cut into byte columns, each read as one int: byte i of
        column j is byte j of the mask of flat index i, so bit z of the
        masks is one AND and one popcount of column z // 8."""
        # Each mask as little-endian bytes, stride apiece: an 8-byte word,
        # all packed in one call, when the highest z on a face (never n_z)
        # is below 64, else nb bytes, one to_bytes per mask (still linear
        # in the table).  The join holds slots * stride bytes: 8 per slot,
        # or what parse_host's table budget (entries times highest z + 1
        # bits) bounds up to one byte per entry.
        masks = self.masks
        nb = (self.occupied.bit_length() + 7) // 8
        if nb <= 8:
            stride, joined = 8, struct.pack(f"<{len(masks)}Q", *masks)
        else:
            stride = nb
            joined = b"".join(map(int.to_bytes, masks, repeat(nb), repeat("little")))
        return [int.from_bytes(joined[j::stride], "little") for j in range(nb)]

    @cached_property
    def _ones(self) -> int:
        """Byte i is 1 for each slot i: the mask that keeps bit 0 of every
        byte of a column."""
        return int.from_bytes(b"\x01" * len(self.masks), "little")

    @cached_property
    def entry_sizes(self) -> list[int]:
        """Per flat index x * n_y + y, the number of faces of its entry, so
        ``entry_sizes[y::n_y]`` holds the sizes of y's entries by x."""
        return list(map(int.bit_count, self.masks))

    @cached_property
    def link_y_masks(self) -> dict[int, tuple[int, ...]]:
        """Per z whose link has been built, its Y side: ``link_y`` fills
        it, once per z."""
        return {}

    def has(self, x: int, y: int, z: int) -> bool:
        """Whether (x, y, z) is a face.  Each coordinate is checked against
        its class first: out of range, it would alias another face's entry."""
        nx, ny, nz = self.class_sizes
        return 0 <= x < nx and 0 <= y < ny and 0 <= z < nz and self.masks[x * ny + y] >> z & 1 == 1

    def _flags(self, z: int) -> int:
        """Byte i is 1 if the mask of flat index i holds z, else 0."""
        if not 0 <= z < self.n_z:
            raise IndexError(f"z = {z} out of range")
        columns = self.byte_columns
        if z >> 3 >= len(columns):
            return 0
        return columns[z >> 3] >> (z & 7) & self._ones

    def _holds(self, z: int) -> bytes:
        """Per flat index, the byte 1 if its mask holds z, else 0."""
        return self._flags(z).to_bytes(len(self.masks), "little")

    def link_size(self, z: int) -> int:
        """e(L_z), the number of faces through z."""
        return self._flags(z).bit_count()

    def link_y(self, z: int) -> tuple[int, ...]:
        """The Y side of L_z: entry y is the bitmask over X of the x with
        (x, y, z) a face: ``_holds(z)``, one byte per flat index, read at
        stride n_y from y."""
        y_masks = self.link_y_masks.get(z)
        if y_masks is None:
            holds, ny = self._holds(z), self.n_y
            y_masks = self.link_y_masks[z] = tuple(mask_of(holds[y::ny]) for y in range(ny))
        return y_masks

    def pair_columns(self, ya: int, yb: int) -> list[int]:
        """Per x, the AND of the entries (x, ya) and (x, yb): the bitmask
        over Z of the centers of column x of the Y-pair, so that the cycle
        on columns x and x' bounds the disks of ``cols[x] & cols[x']``: the
        two entries of every x, read at stride n_y, in one ``map``."""
        ny = self.n_y
        if not (0 <= ya < ny and 0 <= yb < ny):
            raise IndexError(f"Y-pair ({ya}, {yb}) out of range")
        return list(map(and_, self.masks[ya::ny], self.masks[yb::ny]))


@dataclass(frozen=True)
class SpecialCycle:
    """One of the three distinguished 4-cycles arising from a face.

    The cycle visits a, u, b, w in order: a and b are original vertices, u is
    the pair-vertex of the pair ab and w the face-vertex of the face; the
    auxiliary graph's ``v2_tags`` name the pair and the face.
    """

    a: int
    u: int
    b: int
    w: int


@dataclass(frozen=True)
class AuxGraph:
    """The bipartite auxiliary graph of a target.

    v1 holds the original vertices; v2 holds one vertex per covered pair and
    one per face.  ``v2_tags`` records, aligned with v2, either
    ``("pair", (a, b))`` or ``("face", (a, b, c))``.
    """

    v1: tuple[int, ...]
    v2: tuple[int, ...]
    v2_tags: tuple[tuple, ...]
    special_cycles: tuple[SpecialCycle, ...]

    def neighbors_of_v2(self, u: int) -> tuple[int, ...]:
        tag = self.v2_tags[u - len(self.v1)]
        return tag[1]


@dataclass(frozen=True)
class Embedding:
    """Where a certificate puts the target's glued subdivision in the host."""

    v1_map: dict[int, int]  # target vertex -> Y index
    v2_map: dict[int, int]  # aux V2 vertex -> X index
    center_map: dict[int, int]  # special-cycle index -> Z index


@dataclass(frozen=True)
class HomeomorphCertificate:
    """A homeomorphic copy of ``target`` in a host: the target and where its
    glued subdivision goes."""

    target: ThreeGraph
    embedding: Embedding

    @property
    def host_faces(self) -> tuple[Face, ...]:
        """The copy's faces in the host, read off the target's special
        cycles: the cycle ci = (a, u, b, w) bounds the 4-disk of the four
        faces (x[u], y[a], c), (x[u], y[b], c), (x[w], y[b], c) and
        (x[w], y[a], c), where x, y and c are ``v2_map``, ``v1_map`` and
        ``center_map[ci]``, listed in cycle order.  Worked out on every
        read; a map without a key a cycle needs raises KeyError."""
        emb = self.embedding
        x, y, center = emb.v2_map, emb.v1_map, emb.center_map
        faces = []
        for ci, sc in enumerate(self.target.aux_graph.special_cycles):
            xu, xw, ya, yb, c = x[sc.u], x[sc.w], y[sc.a], y[sc.b], center[ci]
            faces += (xu, ya, c), (xu, yb, c), (xw, yb, c), (xw, ya, c)
        return tuple(faces)


@dataclass(frozen=True)
class Config:
    """Pipeline knobs, and the one home of their defaults.

    C and delta are exact rationals, an int or a ``Fraction`` and never a
    float, bool or str, so that every threshold comparison stays exact; eps
    is no knob, as the pipeline realizes it (q = n**-eps) from the chosen
    link's density.  ``k_threshold`` is the admissibility cutoff K (a
    4-cycle is admissible when it bounds more than K 4-disks); when None it
    defaults to 3*v**3 for the target at hand, with v = max(1, v(H)) as in
    ``paper_defaults``.  Any positive K is valid: the V2 placement search
    itself secures distinct disk centers.
    ``retry_limit`` bounds that search: it visits at most
    ``retry_limit ** 2`` nodes before giving up undecided.  ``rng_seed`` is
    an int, any sign, and never a bool.
    """

    C: Fraction = Fraction(1)
    delta: Fraction = Fraction(1, 5)
    k_threshold: int | None = None
    rng_seed: int = 0
    retry_limit: int = 64

    def __post_init__(self):
        for name, value in (("C", self.C), ("delta", self.delta)):
            if type(value) not in (int, Fraction):
                raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
            object.__setattr__(self, name, Fraction(value))
        if self.C <= 0:
            raise ValueError("C must be positive")
        if not 0 < self.delta <= 1:
            raise ValueError("need 0 < delta <= 1")
        # ints, not floats or bools, so that K stays exact in every comparison
        if self.k_threshold is not None and not _positive_int(self.k_threshold):
            raise ValueError(f"k_threshold must be a positive integer, got {self.k_threshold!r}")
        if not _positive_int(self.retry_limit):
            raise ValueError(f"retry_limit must be a positive integer, got {self.retry_limit!r}")
        if type(self.rng_seed) is not int:
            raise ValueError(f"rng_seed must be an integer, got {self.rng_seed!r}")

    def k_for(self, target: ThreeGraph) -> int:
        if self.k_threshold is not None:
            return self.k_threshold
        return 3 * max(1, target.v) ** 3

    @classmethod
    def paper_defaults(cls, target: ThreeGraph, **overrides) -> "Config":
        """The asymptotic constants: C = 2000 v**6; K is left to k_for (3 v**3).

        v = max(1, v(H)), so that a target without vertices gets positive
        constants, as ``desk_scale`` takes K = max(1, 3 e(H)).
        """
        kw = dict(C=Fraction(2000) * max(1, target.v) ** 6)
        kw.update(overrides)
        return cls(**kw)

    @classmethod
    def desk_scale(cls, target: ThreeGraph, **overrides) -> "Config":
        """Small-host settings: C = 1 and K = 3*e(H), a desk setting, not a floor."""
        kw = dict(C=Fraction(1), k_threshold=max(1, 3 * target.e))
        kw.update(overrides)
        return cls(**kw)


def _positive_int(value) -> bool:
    return type(value) is int and value > 0


def one_cells(faces: Iterable[Iterable]) -> set[tuple]:
    """The 1-cells of the complex with these faces: the sorted vertex pairs inside some face."""
    return {pair for f in faces for pair in combinations(sorted(f), 2)}


def covered_pairs(h: ThreeGraph) -> list[Pair]:
    """Pairs of vertices contained in at least one face, lexicographic."""
    return sorted(one_cells(h.faces))


def euler_characteristic(h: ThreeGraph) -> int:
    """V - E + F of the geometric realization.

    Only pairs covered by a face count as 1-cells; isolated vertices count
    toward V.
    """
    return h.vertex_count - len(covered_pairs(h)) + h.e


def build_aux_graph(h: ThreeGraph) -> AuxGraph:
    """The auxiliary bipartite graph with its special 4-cycles.

    One v2 vertex per covered pair (joined to its two endpoints) and one per
    face (joined to its three vertices); each face ``xyz`` contributes the
    special cycles (x, u_xy, y, u_xyz), (y, u_yz, z, u_xyz) and
    (z, u_zx, x, u_xyz).
    """
    pairs = covered_pairs(h)
    faces_sorted = h.sorted_faces()
    v1 = tuple(range(h.vertex_count))

    tags = [("pair", p) for p in pairs] + [("face", f) for f in faces_sorted]
    v2 = tuple(range(h.vertex_count, h.vertex_count + len(tags)))
    # v2 vertex of each pair and face; pairs and faces differ in length
    v2_of = {key: u for u, (_, key) in zip(v2, tags)}

    cycles = []
    for f in faces_sorted:
        x, y, z = f
        w = v2_of[f]
        for a, b in ((x, y), (y, z), (z, x)):
            e = (min(a, b), max(a, b))
            cycles.append(SpecialCycle(a=a, u=v2_of[e], b=b, w=w))

    return AuxGraph(
        v1=v1,
        v2=v2,
        v2_tags=tuple(tags),
        special_cycles=tuple(cycles),
    )

