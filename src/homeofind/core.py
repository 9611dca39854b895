"""Canonical data model for 3-graphs viewed as 2-complexes.

A 3-graph is a 3-uniform hypergraph; identifying each edge with a triangular
face turns it into a two-dimensional simplicial complex.  This module holds
the immutable value types shared by the whole pipeline, the certificate
types ``Embedding`` and ``HomeomorphCertificate`` among them, together with
the target-side construction the search embeds: a target's bipartite
auxiliary graph, whose special 4-cycles mark where 4-disks must be glued.
The certificate path (``io``, ``verify``) imports this module alone.

It also defines the one storage format of a host's faces, its z-mask
table: a ``TripartiteHost`` with class sizes (n_x, n_y, n_z) keeps, for
each (x, y) with at least one face, the bitmask over Z of the z that
complete (x, y) to a face, keyed by the flat index ``x * n_y + y``.  The
table is sparse (an (x, y) with no face has no entry), so it holds one int
per occupied (x, y) and nothing per face or per header-sized class.  Facts
of the table alone, ``e`` and ``occupied`` (the OR of its masks), live on
the host.  Every stage reads the host through it: ``io`` writes and
parses it, and ``links`` counts link sizes e(L_z) from its byte columns.

Every set the pipeline handles is an int bitmask like those z-sets: a link's
neighbourhoods, Gamma(x), a search domain, a cycle's center set.  ``bits``
is the one function that lists a mask's set bits, for every module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from itertools import combinations, compress, count
from operator import or_
from typing import Iterable

Face = tuple[int, int, int]
Pair = tuple[int, int]

# a binary digit of a mask, as the byte 0 or 1
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask: int) -> list[int]:
    """The positions of the set bits of the non-negative ``mask``, ascending,
    found in C: its binary digits, reversed, select from the counter
    0, 1, 2, ..."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_BITS)))


def _norm_face(face: Iterable[int]) -> Face:
    a, b, c = sorted(face)
    if not (type(a) is int and type(b) is int and type(c) is int):
        raise ValueError(f"face {face!r} has a non-integer vertex")
    if a == b or b == c:
        raise ValueError(f"face {face!r} has repeated vertices")
    return (a, b, c)


@dataclass(frozen=True)
class ThreeGraph:
    """A finite 3-uniform hypergraph on vertices 0..vertex_count-1."""

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


def _class_sizes(class_sizes) -> tuple[int, int, int]:
    sizes = tuple(class_sizes)
    if len(sizes) != 3 or not all(type(n) is int and n >= 0 for n in sizes):
        raise ValueError(f"class sizes must be three non-negative integers, got {sizes}")
    return sizes


@dataclass(frozen=True, init=False)
class TripartiteHost:
    """A 3-partite 3-graph with classes X, Y, Z and per-class 0-based indices.

    Faces are stored as the z-mask table ``zmasks`` (see the module
    docstring): bit z of ``zmasks[x * n_y + y]`` marks the face (x, y, z),
    and no entry is zero.  Treat the table as read-only.
    ``TripartiteHost(class_sizes, faces)`` takes any iterable of (x, y, z)
    triples of ints and names the first bad face in input order; a face's
    mask takes z + 1 bits, so memory grows with the largest z given.
    ``has`` tests one face, and ``sorted_faces`` and ``faces`` decode the
    table, for tests and oracles.  ``e`` and ``occupied`` (the OR of the
    masks) are worked out here alone.  Equality and hashing are by value.
    """

    class_sizes: tuple[int, int, int]
    zmasks: dict[int, int]

    def __init__(self, class_sizes, faces: Iterable[Face]):
        nx, ny, nz = sizes = _class_sizes(class_sizes)
        table: dict[int, int] = {}
        for x, y, z in faces:
            if not (type(x) is int and type(y) is int and type(z) is int):
                raise ValueError(f"face {(x, y, z)} has a non-integer coordinate")
            if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
                raise ValueError(f"face {(x, y, z)} out of class bounds")
            i = x * ny + y
            table[i] = table.get(i, 0) | 1 << z
        object.__setattr__(self, "class_sizes", sizes)
        object.__setattr__(self, "zmasks", table)

    @classmethod
    def _from_table(cls, class_sizes, zmasks: dict[int, int]) -> "TripartiteHost":
        """A host that takes over ``zmasks``.  Only the sizes are checked: the
        caller vouches for keys in [0, n_x * n_y) and non-zero masks below
        2**n_z."""
        host = object.__new__(cls)
        object.__setattr__(host, "class_sizes", _class_sizes(class_sizes))
        object.__setattr__(host, "zmasks", zmasks)
        return host

    def __hash__(self):
        return hash((self.class_sizes, frozenset(self.zmasks.items())))

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
        return sum(map(int.bit_count, self.zmasks.values()))

    @cached_property
    def occupied(self) -> int:
        """The OR of the table's masks: bit z is set when z is on a face."""
        return reduce(or_, self.zmasks.values(), 0)

    def has(self, x: int, y: int, z: int) -> bool:
        """Whether (x, y, z) is a face.  Each coordinate is checked against
        its class first: out of range, it would alias another face's entry."""
        nx, ny, nz = self.class_sizes
        return (
            0 <= x < nx and 0 <= y < ny and 0 <= z < nz
            and self.zmasks.get(x * ny + y, 0) >> z & 1 == 1
        )

    def sorted_faces(self) -> list[Face]:
        """The faces in lexicographic order: the sorted table, decoded."""
        ny = self.n_y
        return [(i // ny, i % ny, z) for i, m in sorted(self.zmasks.items()) for z in bits(m)]

    @cached_property
    def faces(self) -> frozenset[Face]:
        """The faces as (x, y, z) tuples, decoded once when first read."""
        return frozenset(self.sorted_faces())


@dataclass(frozen=True)
class SpecialCycle:
    """One of the three distinguished 4-cycles arising from a face.

    The cycle visits a, u, b, w in order: a and b are original vertices, u is
    the pair-vertex of the pair ab and w the face-vertex of ``face``.
    """

    a: int
    u: int
    b: int
    w: int
    face: Face
    edge: Pair


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
    """A homeomorphic copy of ``target`` in a host: its faces and their map."""

    target: ThreeGraph
    host_faces: tuple[Face, ...]  # four per special cycle, in cycle order
    embedding: Embedding


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
            cycles.append(SpecialCycle(a=a, u=v2_of[e], b=b, w=w, face=f, edge=e))

    return AuxGraph(
        v1=v1,
        v2=v2,
        v2_tags=tuple(tags),
        special_cycles=tuple(cycles),
    )
