"""Link graphs of host vertices and 4-cycle enumeration.

The hot path here is counting, for every 4-cycle of a link, the number of
host vertices z whose link also contains it (its 4-disks).  The host's
z-mask table (see ``core``) already holds, per (x, y), the bitmask of the
z completing it to a face; ``HostIndex`` holds the host and byte columns
cut from that table, so a cycle's disk count is a popcount of an AND of
four of its entries, looked up by flat index ``x * n_y + y``.  The z-scan
visits only the z on some face, the set bits of ``TripartiteHost.occupied``,
and reads e(L_z) for each as one count over a byte column of the masks
(``HostIndex.link_size``); it builds a ``LinkGraph`` only for a z that
passes the density condition, from the table entries that column selects.

``count_forbidden`` is the one walk over a link's 4-cycles that the search
makes: it counts the forbidden cycles through each Y-pair it is given, and
their total, B_z when it is given every pair.  The walk skips, without an
AND, cycles whose disk count is certainly above or certainly at most K by
the sizes of its two column z-sets alone.  Both uses of those counts, the
z-scan's condition (2) and the good/bad pair test (``good_pair_rule``),
have an exact upper bound in the common degrees d of the Y-pairs, as a
pair carries at most C(d, 2) forbidden cycles.  So ``pick_link_vertex``
walks a whole link only when the bound leaves (2) open, and otherwise only
the pairs whose goodness turns on their count.  It decides every Y-pair of
the chosen link from the counts of that one pass, and the choice carries
the verdicts as per-y bad-pair masks: no other module sees a count.
Its oracles are ``iter_link_cycles``, the one other walk (over X-pairs),
and ``count_disks``, a face-membership scan independent of the index; the
first yields and the second takes a cycle as a plain tuple
``(x1, x2, y1, y2)`` with x1 < x2 and y1 < y2.  Two
more oracles check the z-scan's expectation arguments in exact rational
arithmetic: ``expectation_oracle`` (the mean of e(L_z) is e(G)/n_Z) and
``forbidden_expectation_oracle`` (the double count behind the mean of B_z).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress
from math import ceil, comb

from .core import Config, TripartiteHost, bits
from .errors import NoQualifyingVertex
from .exact import ceil_pow, floor_pow

# _BIT_OF_BYTE[k] maps a byte to 1 if its bit k is set, else to 0
_BIT_OF_BYTE = [bytes(b >> k & 1 for b in range(256)) for k in range(8)]


@dataclass(frozen=True)
class LinkGraph:
    """The bipartite X-Y graph of faces through a fixed z, as neighbour masks.

    ``x_masks[x]`` is the bitmask over Y of the neighbours of x, and
    ``y_masks[y]`` the bitmask over X of those of y; ``HostIndex.link``
    builds both from the host's table.  Edge xy is present when
    ``x_masks[x] >> y & 1``.
    """

    z: int
    x_masks: tuple[int, ...]
    y_masks: tuple[int, ...]

    @property
    def n_x(self) -> int:
        return len(self.x_masks)

    @property
    def n_y(self) -> int:
        return len(self.y_masks)

    @cached_property
    def e(self) -> int:
        return sum(map(int.bit_count, self.x_masks))


class HostIndex:
    """A host and the byte columns of its table, shared by a run's stages.

    It holds ``host`` alone until it cuts the columns, reading the table,
    its sizes and ``occupied`` from the host.  ``disk_mask`` ANDs table
    entries found by flat index.  On first use the table's masks are cut
    into byte columns: column j holds byte j of every mask, in table order,
    so bit z of the masks is one byte-wise ``translate`` of column z // 8.
    ``link_size(z)`` counts those bits, e(L_z), and ``link(z)`` selects
    with them the table entries that hold z and builds its link from them.
    """

    def __init__(self, host: TripartiteHost):
        self.host = host

    @cached_property
    def _columns(self) -> list[bytes]:
        # Each mask as nb little-endian bytes, nb fixed by the highest z on
        # a face (never by n_z): the join holds entries * nb bytes, which
        # parse_host's table budget (entries times highest z + 1 bits)
        # bounds up to one byte per entry.  Column j is every nb-th byte.
        nb = (self.host.occupied.bit_length() + 7) // 8
        joined = b"".join(m.to_bytes(nb, "little") for m in self.host.zmasks.values())
        return [joined[j::nb] for j in range(nb)]

    def _holds(self, z: int) -> bytes:
        """Per table entry, in table order, the byte 1 if its mask holds z,
        else 0."""
        if not 0 <= z < self.host.n_z:
            raise IndexError(f"z = {z} out of range")
        columns = self._columns
        if z >> 3 >= len(columns):
            return bytes(len(self.host.zmasks))
        return columns[z >> 3].translate(_BIT_OF_BYTE[z & 7])

    def link_size(self, z: int) -> int:
        """e(L_z), the number of faces through z."""
        return self._holds(z).count(1)

    def link(self, z: int) -> LinkGraph:
        n_y = self.host.n_y
        x_masks, y_masks = [0] * self.host.n_x, [0] * n_y
        for i in compress(self.host.zmasks, self._holds(z)):
            x, y = divmod(i, n_y)
            x_masks[x] |= 1 << y
            y_masks[y] |= 1 << x
        return LinkGraph(z, tuple(x_masks), tuple(y_masks))

    def disk_mask(self, xa: int, xb: int, ya: int, yb: int) -> int:
        """Bitmask over Z of the centers completing the cycle to 4-disks."""
        get, ny = self.host.zmasks.get, self.host.n_y
        ra, rb = xa * ny, xb * ny
        return get(ra + ya, 0) & get(ra + yb, 0) & get(rb + ya, 0) & get(rb + yb, 0)


def count_disks(host: TripartiteHost, c: tuple[int, int, int, int]) -> int:
    """Number of z whose link contains the cycle ``(x1, x2, y1, y2)``; direct
    membership scan.

    Deliberately independent of the bitmask index so the two code paths can
    be checked against each other.
    """
    x1, x2, y1, y2 = c
    count = 0
    for z in range(host.n_z):
        if (
            host.has(x1, y1, z)
            and host.has(x1, y2, z)
            and host.has(x2, y1, z)
            and host.has(x2, y2, z)
        ):
            count += 1
    return count


def iter_link_cycles(link: LinkGraph):
    """All 4-cycles of a link, via common neighbourhoods of X-pairs.

    Each cycle is yielded once, as the tuple ``(x1, x2, y1, y2)`` with
    x1 < x2 and y1 < y2.
    """
    masks = link.x_masks
    xs = [x for x in range(link.n_x) if masks[x]]
    for i, x1 in enumerate(xs):
        m1 = masks[x1]
        for x2 in xs[i + 1:]:
            common = m1 & masks[x2]
            if common.bit_count() < 2:
                continue
            ys = bits(common)
            for j, y1 in enumerate(ys):
                for y2 in ys[j + 1:]:
                    yield x1, x2, y1, y2


def expectation_oracle(host: TripartiteHost) -> Fraction:
    """Average link size over Z, exact; asserts it equals e(G)/n_Z."""
    if host.n_z < 1:
        raise ValueError("host has no Z vertices")
    index = HostIndex(host)
    avg = Fraction(sum(index.link(z).e for z in range(host.n_z)), host.n_z)
    assert avg == Fraction(host.e, host.n_z), "link-size expectation identity violated"
    return avg


def forbidden_expectation_oracle(host: TripartiteHost, K: int) -> Fraction:
    """Average forbidden-cycle count over Z, with the double-count identity.

    Asserts sum_z B_z = sum over forbidden cycles of their disk counts, and
    that the average is at most (K/n_Z) times the global forbidden-cycle
    count (the bound behind E[B_z] <= K_H * n**3).
    """
    if host.n_z < 1:
        raise ValueError("host has no Z vertices")
    index = HostIndex(host)

    # one walk per link, counting its forbidden cycles into B_z; a cycle's
    # disk count is worked out on its first appearance
    counts: dict[tuple[int, int, int, int], int] = {}
    total_b = 0
    for z in range(host.n_z):
        for c in iter_link_cycles(index.link(z)):
            if c not in counts:
                counts[c] = index.disk_mask(*c).bit_count()
            total_b += counts[c] <= K
    sum_forbidden_disks = sum(d for d in counts.values() if d <= K)

    assert total_b == sum_forbidden_disks, "forbidden double-count identity violated"
    avg = Fraction(total_b, host.n_z)

    admissible = sum(1 for d in counts.values() if d > K)
    global_forbidden = comb(host.n_x, 2) * comb(host.n_y, 2) - admissible
    assert avg <= Fraction(K * global_forbidden, host.n_z), (
        "forbidden expectation bound violated"
    )
    return avg


def count_forbidden(
    link: LinkGraph,
    K: int,
    index: HostIndex,
    pairs: Iterable[tuple[int, int]] | None = None,
) -> tuple[int, dict[tuple[int, int], int]]:
    """The forbidden-cycle count of each Y-pair in ``pairs``, in one walk.

    ``pairs`` holds Y-pairs (y1, y2) with y1 < y2; by default it is every
    pair of the link, and ``total`` is then B_z.  Returns
    ``(total, by_pair)``: ``by_pair[(y1, y2)]`` is the number of forbidden
    4-cycles of the link through y1 and y2, and pairs with none are left
    out.  Every cycle passes through exactly one Y-pair, so ``total``, the
    sum of the values, counts the forbidden cycles through the walked pairs.

    For a Y-pair, each common neighbour x contributes the column z-set
    Z(x) = zmasks[x * n_y + y1] & zmasks[x * n_y + y2], and the cycle on columns x, x' bounds
    |Z(x) & Z(x')| disks.  With the columns sorted by c = |Z(x)|, two facts
    settle most cycles without an AND, both exact:

    - |Z(x) & Z(x')| <= min(c, c'), so a column with c <= K is forbidden
      with every column sorted before it;
    - |Z(x) & Z(x')| >= c + c' - n_Z (inclusion-exclusion), so a column pair
      with c + c' > K + n_Z is admissible.
    """
    host = index.host
    zb, ny, cap = host.zmasks, host.n_y, K + host.n_z
    ymasks = link.y_masks
    if pairs is None:
        pairs = combinations([y for y in range(link.n_y) if ymasks[y]], 2)
    total = 0
    by_pair: dict[tuple[int, int], int] = {}
    for y1, y2 in pairs:
        common = ymasks[y1] & ymasks[y2]
        if common & (common - 1) == 0:  # fewer than two common neighbours
            continue
        cols = sorted(
            (zb[x * ny + y1] & zb[x * ny + y2] for x in bits(common)),
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


def good_pair_rule(K: int, C: Fraction, n: int, q: Fraction) -> Callable[[int, int], bool]:
    """The good-pair test of a link of density q = n**(-eps), as
    ``good(d, forb)`` for a Y-pair with common degree d and forb forbidden
    cycles through it.

    A pair is good when d >= n**(1-2*eps) = n q**2 and
    forb <= (K/C) n**(1-3*eps) d = (K/C) n q**3 d.  Both cutoffs are exact:
    the first is the integer ceil(n q**2), and the second is one integer
    cross-multiplication with the numerator and denominator of (K/C) n q**3.
    The test falls as forb grows, and 0 <= forb <= C(d, 2), so a pair whose
    test gives the same answer at 0 and at C(d, 2) is decided before any
    cycle through it is counted.
    """
    d_min = ceil(n * q ** 2)
    rate = K * n * q ** 3 / C
    num, den = rate.numerator, rate.denominator

    def good(d: int, forb: int) -> bool:
        return d >= d_min and forb * den <= num * d

    return good


@dataclass(frozen=True)
class LinkChoice:
    link: LinkGraph
    # B_z when forbidden_exact, else the bound T_z >= B_z that settled (2)
    forbidden_count: int
    forbidden_exact: bool  # whether the link was walked whole
    # per y of the link, the bitmask of the y' with {y, y'} a bad pair
    bad_pairs: tuple[int, ...]
    q: Fraction  # n**(-eps), eps realized from the link's density, clamped to (0, 1]


def pick_link_vertex(
    host: TripartiteHost, cfg: Config, K: int, index: HostIndex
) -> LinkChoice:
    """First z (in index order) whose link is dense with few forbidden cycles,
    with the verdict of every Y-pair of that link.

    Derandomizes the expectation argument over a random z by exhaustive scan:
    conditions are e(L_z) >= (C/2) n**(2-delta) and
    B_z <= (2K/C) n**(1+delta) e(L_z), with n = max class size.  Only the z
    of some face are scanned: they are the set bits of ``host.occupied``,
    in ascending order.  Each condition is
    one exact integer cutoff (see ``exact``): the first is worked out once
    and read against ``index.link_size``, so the link graph is built only
    for a z that passes it; the second once per such z.  A cutoff (1) above
    n_x n_y, the most edges a link can have, refuses before any e(L_z) is
    counted.

    A Y-pair of common degree d carries at most C(d, 2) forbidden cycles,
    so B_z <= T_z, the sum of C(d, 2) over the Y-pairs (the link's 4-cycle
    count), which costs one popcount per pair.  When T_z meets the cutoff,
    (2) holds, and ``count_forbidden`` walks only the open pairs: those
    whose goodness (``good_pair_rule``, read with the q that e(L_z) fixes)
    turns on their count.  Otherwise it walks the whole link, and B_z is
    exact.  Either way the one pass settles every Y-pair of the chosen
    link, a pair it did not walk counting 0, and the choice carries those
    verdicts as ``bad_pairs``, the number (2) was decided on and
    q = n**(-eps), realized from the link's density.  A y with no
    neighbour is in a bad pair with every other y, as ceil(n q**2) >= 1.
    """
    if host.e == 0:
        raise NoQualifyingVertex("empty host")
    n = max(host.class_sizes)
    C = cfg.C
    e_min = ceil_pow(C / 2, n, 2 - cfg.delta)
    refusal = (
        f"no z in Z satisfies the density conditions (n={n}, C={C}, K={K}); "
        f"(1) needs e(L_z) >= {e_min}"
    )
    cap = host.n_x * host.n_y  # the most edges a link can have
    if e_min > cap:
        raise NoQualifyingVertex(f"{refusal} > n_x n_y = {cap}, so no link can pass (1)")
    best_diag = []
    for z in bits(host.occupied):
        e_l = index.link_size(z)
        # (1): e(L_z) >= (C/2) n**(2 - delta)
        if e_l < e_min:
            best_diag.append((z, e_l, None))
            continue
        link = index.link(z)
        q = min(Fraction(1), Fraction(2 * e_l) / (C * n * n))
        # (2): B_z <= (2K/C) n**(1 + delta) e(L_z)
        b_max = floor_pow(2 * K * e_l / C, n, 1 + cfg.delta)
        ymasks = link.y_masks
        pairs = list(combinations(range(link.n_y), 2))
        degrees = [(ymasks[y1] & ymasks[y2]).bit_count() for y1, y2 in pairs]
        t_z = sum(d * (d - 1) for d in degrees) // 2
        good = good_pair_rule(K, C, n, q)
        settled = t_z <= b_max  # (2) holds; walk the pairs whose count decides
        walked = None  # every pair
        if settled:
            decides = {d for d in set(degrees) if good(d, 0) and not good(d, comb(d, 2))}
            walked = [pr for pr, d in zip(pairs, degrees) if d in decides]
        b_z, by_pair = count_forbidden(link, K, index, walked)
        if not settled and b_z > b_max:
            best_diag.append((z, e_l, b_z))
            continue
        bad = [0] * link.n_y
        for (y1, y2), d in zip(pairs, degrees):
            if not good(d, by_pair.get((y1, y2), 0)):
                bad[y1] |= 1 << y2
                bad[y2] |= 1 << y1
        return LinkChoice(
            link=link, forbidden_count=t_z if settled else b_z,
            forbidden_exact=not settled, bad_pairs=tuple(bad), q=q,
        )
    raise NoQualifyingVertex(f"{refusal}; per-z diagnostics: {best_diag[:10]}")
