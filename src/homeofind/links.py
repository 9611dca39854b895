"""Link graphs of host vertices, 4-cycle enumeration and classification.

The hot path here is counting, for every 4-cycle of a link, the number of
host vertices z whose link also contains it (its 4-disks).  ``HostIndex``
precomputes, in one pass over the host's faces, the bitmask of z-vertices
completing each (x, y) pair to a face and, per z, the edges of its link as
flat indices ``x * n_y + y``; a cycle's disk count is then a popcount of an
AND of four masks.  The z-scan reads e(L_z) off the length of that list and
builds a ``LinkGraph`` only for a z that passes the density condition.

``count_forbidden`` is the one walk over a link's 4-cycles that the search
makes: it yields B_z (the number of forbidden cycles) and, in the same pass,
the number of forbidden cycles through every Y-pair, which the good/bad pair
classification in ``embed`` reads instead of walking the cycles again.  The
walk skips, without an AND, cycles whose disk count is certainly above or
certainly at most K by the sizes of its two column z-sets alone.
Its oracles are ``iter_link_cycles``, the one other walk (over X-pairs),
``classify_cycles`` (that walk plus ``HostIndex.disk_count``) and
``count_disks``, a face-membership scan independent of the index.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import Config, TripartiteHost
from .errors import NoQualifyingVertex
from .exact import EpsScale, cmp_pow


@dataclass(frozen=True)
class FourCycle:
    """A 4-cycle between X and Y in canonical form (x1 < x2, y1 < y2)."""

    x1: int
    x2: int
    y1: int
    y2: int

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError("FourCycle must be canonical: x1 < x2, y1 < y2")

    @classmethod
    def of(cls, xa, xb, ya, yb) -> "FourCycle":
        return cls(min(xa, xb), max(xa, xb), min(ya, yb), max(ya, yb))


@dataclass(frozen=True)
class CycleClassification:
    cycle: FourCycle
    disk_count: int
    admissible: bool  # True: admissible, False: forbidden


@dataclass(frozen=True)
class LinkGraph:
    """The bipartite X-Y graph of faces through a fixed z."""

    z: int
    n_x: int
    n_y: int
    edges: frozenset[tuple[int, int]]

    @property
    def e(self) -> int:
        return len(self.edges)

    @cached_property
    def x_masks(self) -> tuple[int, ...]:
        """Per x, the bitmask over Y of its neighbours (built once)."""
        masks = [0] * self.n_x
        for x, y in self.edges:
            masks[x] |= 1 << y
        return tuple(masks)

    @cached_property
    def y_masks(self) -> tuple[int, ...]:
        """Per y, the bitmask over X of its neighbours (built once)."""
        masks = [0] * self.n_y
        for x, y in self.edges:
            masks[y] |= 1 << x
        return tuple(masks)


class HostIndex:
    """Precomputed lookup structures for one host, built in one pass.

    The pass over the host's face codes splits each code c into
    ``i = c // n_z`` (the flat index ``x * n_y + y``) and ``z = c % n_z``,
    ORs the z-bit (from a table of ``1 << z``) into a flat list at i and
    appends i to the list of its z, so no object is made per face.
    ``zbits`` then maps every (x, y) with at least one face to its bitmask
    over Z, and ``faces_by_z[z]`` holds the flat indices ``x * n_y + y`` of
    the edges of the link of z (so its length is e(L_z)); ``link(z)`` turns
    them into (x, y) edges.  Immutable once built; shared by every stage of
    a pipeline run.
    """

    def __init__(self, host: TripartiteHost):
        self.host = host
        n_y, n_z = host.n_y, host.n_z
        zbit = [1 << z for z in range(n_z)]
        flat = [0] * (host.n_x * n_y)
        faces_by_z: list[list[int]] = [[] for _ in range(n_z)]
        for c in host.codes:
            i = c // n_z
            z = c % n_z
            flat[i] |= zbit[z]
            faces_by_z[z].append(i)
        self.faces_by_z = faces_by_z
        self.zbits: dict[tuple[int, int], int] = {
            divmod(i, n_y): m for i, m in enumerate(flat) if m
        }

    def link(self, z: int) -> LinkGraph:
        if not 0 <= z < self.host.n_z:
            raise IndexError(f"z = {z} out of range")
        n_y = self.host.n_y
        return LinkGraph(
            z=z,
            n_x=self.host.n_x,
            n_y=n_y,
            edges=frozenset(divmod(i, n_y) for i in self.faces_by_z[z]),
        )

    def disk_count(self, c: FourCycle) -> int:
        return self.disk_mask(c.x1, c.x2, c.y1, c.y2).bit_count()

    def disk_mask(self, xa: int, xb: int, ya: int, yb: int) -> int:
        """Bitmask over Z of the centers completing the cycle to 4-disks."""
        zb = self.zbits
        return (
            zb.get((xa, ya), 0)
            & zb.get((xa, yb), 0)
            & zb.get((xb, ya), 0)
            & zb.get((xb, yb), 0)
        )


def count_disks(host: TripartiteHost, c: FourCycle) -> int:
    """Number of z whose link contains the cycle; direct membership scan.

    Deliberately independent of the bitmask index so the two code paths can
    be checked against each other.
    """
    count = 0
    for z in range(host.n_z):
        if (
            host.has(c.x1, c.y1, z)
            and host.has(c.x1, c.y2, z)
            and host.has(c.x2, c.y1, z)
            and host.has(c.x2, c.y2, z)
        ):
            count += 1
    return count


def iter_link_cycles(link: LinkGraph):
    """All 4-cycles of a link, via common neighbourhoods of X-pairs."""
    masks = link.x_masks
    xs = [x for x in range(link.n_x) if masks[x]]
    for i, x1 in enumerate(xs):
        m1 = masks[x1]
        for x2 in xs[i + 1:]:
            common = m1 & masks[x2]
            if common.bit_count() < 2:
                continue
            ys = _bits(common)
            for j, y1 in enumerate(ys):
                for y2 in ys[j + 1:]:
                    yield FourCycle(x1, x2, y1, y2)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def classify_cycles(
    host: TripartiteHost, link: LinkGraph, K: int, index: HostIndex | None = None
) -> list[CycleClassification]:
    """Every 4-cycle of the link with its disk count and admissibility.

    A cycle is admissible when it bounds more than K 4-disks, forbidden
    otherwise.
    """
    index = index or HostIndex(host)
    out = []
    for c in iter_link_cycles(link):
        d = index.disk_count(c)
        out.append(CycleClassification(cycle=c, disk_count=d, admissible=d > K))
    return out


def count_forbidden(
    link: LinkGraph, K: int, index: HostIndex
) -> tuple[int, dict[tuple[int, int], int]]:
    """B_z and the forbidden-cycle count of every Y-pair, in one walk.

    Returns ``(total, by_pair)``: ``by_pair[(y1, y2)]`` (y1 < y2) is the
    number of forbidden 4-cycles of the link through y1 and y2, and pairs
    with none are left out.  Every cycle passes through exactly one Y-pair,
    so ``total`` is the sum of the values.

    For a Y-pair, each common neighbour x contributes the column z-set
    Z(x) = zbits(x, y1) & zbits(x, y2), and the cycle on columns x, x' bounds
    |Z(x) & Z(x')| disks.  With the columns sorted by c = |Z(x)|, two facts
    settle most cycles without an AND, both exact:

    - |Z(x) & Z(x')| <= min(c, c'), so a column with c <= K is forbidden
      with every column sorted before it;
    - |Z(x) & Z(x')| >= c + c' - n_Z (inclusion-exclusion), so a column pair
      with c + c' > K + n_Z is admissible.
    """
    zb = index.zbits
    cap = K + index.host.n_z
    ymasks = link.y_masks
    ys = [y for y in range(link.n_y) if ymasks[y]]
    total = 0
    by_pair: dict[tuple[int, int], int] = {}
    for i, y1 in enumerate(ys):
        m1 = ymasks[y1]
        for y2 in ys[i + 1:]:
            common = m1 & ymasks[y2]
            if common & (common - 1) == 0:  # fewer than two common neighbours
                continue
            cols = sorted(
                (zb[(x, y1)] & zb[(x, y2)] for x in _bits(common)),
                key=int.bit_count,
            )
            sizes = [c.bit_count() for c in cols]
            forb = 0
            for j in range(1, len(cols)):
                cj = sizes[j]
                if cj <= K:
                    forb += j
                    continue
                # partners that may share at most K centers: c <= cap - cj
                p = bisect_right(sizes, cap - cj, 0, j)
                if p == 0:
                    break  # sizes ascend, so no later column has partners
                zj = cols[j]
                for k in range(p):
                    if (zj & cols[k]).bit_count() <= K:
                        forb += 1
            if forb:
                by_pair[(y1, y2)] = forb
                total += forb
    return total, by_pair


@dataclass(frozen=True)
class LinkChoice:
    z: int
    link: LinkGraph
    forbidden_count: int  # B_z
    forbidden_by_pair: dict[tuple[int, int], int]  # see count_forbidden
    q: Fraction  # n**(-eps_realized), clamped to (0, 1]
    epsilon_realized: float


def pick_link_vertex(
    host: TripartiteHost, cfg: Config, K: int, index: HostIndex
) -> LinkChoice:
    """First z (in index order) whose link is dense with few forbidden cycles.

    Derandomizes the expectation argument over a random z by exhaustive scan:
    conditions are e(L_z) >= (C/2) n**(2-delta) and
    B_z <= (2K/C) n**(1+delta) e(L_z), with n = max class size.  The first
    is checked on the edge count of ``index`` (the host's index, shared with
    the later stages), so the link graph is built only for a z that passes
    it.  The choice carries the count_forbidden pass of that link and
    q = n**(-eps), realized from its density.
    """
    if host.e == 0:
        raise NoQualifyingVertex("empty host")
    n = max(host.class_sizes)
    C = cfg.C
    best_diag = []
    for z in range(host.n_z):
        e_l = len(index.faces_by_z[z])  # faces are a set, so this is e(L_z)
        if e_l == 0:
            continue
        # (1): e(L_z) >= (C/2) n**(2 - delta)
        if cmp_pow(Fraction(2 * e_l) / C, n, 2 - cfg.delta) < 0:
            best_diag.append((z, e_l, None))
            continue
        link = index.link(z)
        b_z, by_pair = count_forbidden(link, K, index)
        # (2): B_z <= (2K/C) n**(1 + delta) e(L_z)
        if b_z > 0 and cmp_pow(Fraction(b_z) * C / (2 * K * e_l), n, 1 + cfg.delta) > 0:
            best_diag.append((z, e_l, b_z))
            continue
        q = min(Fraction(1), Fraction(2 * e_l) / (C * n * n))
        scale = EpsScale(n=n, q=q)
        return LinkChoice(
            z=z, link=link, forbidden_count=b_z, forbidden_by_pair=by_pair, q=q,
            epsilon_realized=scale.eps_float(),
        )
    raise NoQualifyingVertex(
        f"no z in Z satisfies the density conditions (n={n}, C={C}, K={K}); "
        f"per-z diagnostics: {best_diag[:10]}"
    )
