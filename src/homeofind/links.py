"""Link graphs of host vertices and 4-cycle enumeration.

The hot path here is counting, for every 4-cycle of a link, the number of
host vertices z whose link also contains it (its 4-disks).  The host's
z-mask table (see ``core``) already holds, per (x, y), the bitmask of the
z completing it to a face, so a cycle's disk count is a popcount of an AND
of four of its entries, looked up by flat index ``x * n_y + y``.  The
z-scan visits only the z on some face, the set bits of
``TripartiteHost.occupied``, and reads e(L_z) for each off the host
(``TripartiteHost.link_size``); it builds a ``LinkGraph`` only for a z
that passes the density condition (``HostIndex.link``).  A link graph is
its host and z, and reads its Y side and e(L_z) off the host, so a second
search of the same host cuts no column and builds no link side again.

``count_forbidden`` is the one walk over a link's 4-cycles that the search
makes: it counts the forbidden cycles through each Y-pair it is given, and
their total, B_z when it is given every pair.  The walk skips, without an
AND, cycles whose disk count is certainly above or certainly at most K by
the sizes of its two column z-sets alone (``open_partners``, the one
statement of that rule, which ``embed.embed_v2`` reads its arcs by too).
Before building any column it skips a whole Y-pair when the host's entry
sizes (``TripartiteHost.entry_sizes``) show by inclusion-exclusion that
every cycle through the pair bounds more than K disks: first by a per-y
floor, the smallest table entry on an edge of the link at each of its two
y, by which a whole-link walk enumerates only the pairs it leaves open,
and then by the two least sums of the pair's two entry sizes over its
common neighbours.  Both uses of those counts, the z-scan's condition (2)
and the good/bad pair test (``good_pair_rule``), have an exact upper bound
in the common degrees d of the Y-pairs, as a pair carries at most C(d, 2)
forbidden cycles.  So ``pick_link_vertex``, which works the degrees out
one row of Y-pairs at a time, walks a whole link only when the bound
leaves (2) open, and otherwise only the pairs whose goodness turns on
their count.
It decides every Y-pair of the chosen link from its degree and the counts
of that one pass, and the choice carries the verdicts as per-y bad-pair
masks: no other module sees a count.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from math import ceil
from operator import add, or_

from .core import Config, TripartiteHost, bits, flags, mask_of
from .errors import NoQualifyingVertex
from .exact import ceil_pow, floor_pow


@dataclass(frozen=True)
class LinkGraph:
    """L_z of ``host``: the bipartite X-Y graph of the faces through z.

    A link is its host and z, and reads its Y side (``TripartiteHost.link_y``,
    built when the link is made) and e(L_z) off the host.  ``y_masks[y]`` is
    the bitmask over X of the neighbours of y, and ``gamma(x)`` the bitmask
    over Y of the neighbours of x.  The repr names z alone, not the
    host's table.
    """

    host: TripartiteHost = field(repr=False)
    z: int

    def __post_init__(self) -> None:
        self.host.link_y(self.z)  # a z outside [0, n_z) raises IndexError

    @property
    def y_masks(self) -> tuple[int, ...]:
        return self.host.link_y(self.z)

    @property
    def n_x(self) -> int:
        return self.host.n_x

    @property
    def n_y(self) -> int:
        return self.host.n_y

    @property
    def e(self) -> int:
        return self.host.link_size(self.z)

    def gamma(self, x: int) -> int:
        """Gamma(x), the bitmask over Y of the neighbours of x."""
        return sum(1 << y for y, m in enumerate(self.y_masks) if m >> x & 1)


class HostIndex:
    """The links of a host, as a run's stages read them.

    It holds ``host`` alone, and ``link(z)`` is ``LinkGraph(host, z)``, so
    every index of one host shares the Y sides the host keeps.
    """

    def __init__(self, host: TripartiteHost):
        self.host = host

    def link(self, z: int) -> LinkGraph:
        return LinkGraph(self.host, z)


def open_partners(c: int, sizes: Sequence[int], K: int, n_z: int, end: int) -> tuple[int, int]:
    """The partners of a column z-set of size c whose shared-center count
    their sizes leave open, as the index range ``[lo, hi)`` of ``sizes``.

    ``sizes[:end]`` are the sizes c' of the partner column z-sets, in
    ascending order.  Two facts bound the number of centers a column Z and
    a partner Z' share by their sizes alone, both exact:

    - |Z & Z'| <= min(c, c'), so it is at most K when c <= K or c' <= K;
    - |Z & Z'| >= c + c' - n_Z (inclusion-exclusion), so it is above K when
      c' > K + n_Z - c.

    So the partners before ``lo`` share at most K centers with the column
    (a cycle on the two columns is forbidden), those from ``hi`` to ``end``
    share more than K (it is admissible), and only the partners in between
    need an AND.  When c <= K, lo = hi = end.
    """
    if c <= K:
        return end, end
    return bisect_right(sizes, K, 0, end), bisect_right(sizes, K + n_z - c, 0, end)


def count_forbidden(
    link: LinkGraph,
    K: int,
    pairs: Iterable[tuple[int, int]] | None = None,
) -> tuple[int, dict[tuple[int, int], int]]:
    """The forbidden-cycle count of each Y-pair in ``pairs`` of ``link``, in
    one walk.

    ``pairs`` holds Y-pairs (y1, y2) with y1 < y2; by default it is every
    pair of the link, and ``total`` is then B_z.  Returns
    ``(total, by_pair)``: ``by_pair[(y1, y2)]`` is the number of forbidden
    4-cycles of the link through y1 and y2, and pairs with none are left
    out.  Every cycle passes through exactly one Y-pair, so ``total``, the
    sum of the values, counts the forbidden cycles through the walked pairs.

    For a Y-pair, each common neighbour x contributes the column z-set
    Z(x), the AND of the masks of the entries (x, y1) and (x, y2) (the
    pair's ``TripartiteHost.pair_columns``, kept at the common neighbours),
    and the cycle on columns x, x' bounds |Z(x) & Z(x')| disks.  With the
    columns sorted by c = |Z(x)|, each column's cycles with the columns
    before it are settled by the two sizes where ``open_partners`` can
    (forbidden when c <= K or c' <= K, admissible when c + c' > K + n_Z),
    and ANDed only where the sizes leave them open.

    Two facts of the table entries' sizes (``TripartiteHost.entry_sizes``,
    read at stride n_y from y) settle a whole Y-pair before any column is
    built, both by inclusion-exclusion.  Let s(x) be the sizes of the
    entries (x, y1) and (x, y2) added: Z(x) holds at least s(x) - n_Z
    centers, so the cycle on x, x' bounds at least s(x) + s(x') - 3 n_Z
    disks.  When s0 + s1 - 3 n_Z > K, with s0 and s1 the two least s(x)
    over the pair's common neighbours, no cycle through the pair is
    forbidden.  Each s(x) is at least f(y1) + f(y2), where f(y) is the
    least entry size over the link neighbours of y, so the pair is settled
    too, without a sum, when 2 (f(y1) + f(y2)) - 3 n_Z > K: a whole-link
    walk works f out for every y, sorts the y by it and enumerates only
    the pairs this floor leaves open: only the y1 that leave a pair open
    with the least floor, in label order, and for each one ``bisect`` over
    prefix masks of that order.  A walk of given pairs works f(y) out for
    the first pair through y that reaches the floor test, so a walk that
    reaches none reads no entry sizes.
    """
    host, ymasks = link.host, link.y_masks
    ny, nz = host.n_y, host.n_z
    # by y once f(y) is worked out, its entry sizes by x and f(y), else 0:
    # an entry of the link holds z, so f(y) >= 1
    by_x: list[list[int]] = [[]] * ny
    least = [0] * ny

    def f(y: int) -> int:
        sizes = by_x[y] = host.entry_sizes[y::ny]
        least[y] = min(compress(sizes, flags(ymasks[y])))
        return least[y]

    pair_cap = K + 3 * nz
    floor_cap = pair_cap // 2  # 2 (f(y1) + f(y2)) > pair_cap  <=>  f(y1) + f(y2) > floor_cap
    if pairs is None:
        ys = [y for y in range(ny) if ymasks[y]]
        for y in ys:
            f(y)
        order = sorted(ys, key=least.__getitem__)
        floors = [least[y] for y in order]
        # prefix[j], the mask of the y with the j least floors
        prefix = list(accumulate((1 << y for y in order), or_, initial=0))
        # a y1 that even the least floor leaves settled opens no pair
        pairs = (
            (y1, y2)
            for y1 in ys
            if least[y1] + floors[0] <= floor_cap
            for y2 in bits(prefix[bisect_right(floors, floor_cap - least[y1])] >> y1 + 1 << y1 + 1)
        )
    total = 0
    by_pair: dict[tuple[int, int], int] = {}
    for y1, y2 in pairs:
        common = ymasks[y1] & ymasks[y2]
        if common & (common - 1) == 0:  # fewer than two common neighbours
            continue
        if (least[y1] or f(y1)) + (least[y2] or f(y2)) > floor_cap:
            continue  # every cycle through the pair bounds more than K disks
        on = flags(common)
        s0, s1 = sorted(map(add, compress(by_x[y1], on), compress(by_x[y2], on)))[:2]
        if s0 + s1 > pair_cap:
            continue  # by the size sums, so does every cycle through the pair
        cols = sorted(compress(host.pair_columns(y1, y2), on), key=int.bit_count)
        sizes = [c.bit_count() for c in cols]
        forb = 0
        for j in range(1, len(cols)):
            lo, hi = open_partners(sizes[j], sizes, K, nz, j)
            if hi == 0:
                break  # sizes ascend, so every later column is admissible too
            forb += lo
            zj = cols[j]
            for k in range(lo, hi):
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
    """First z on some face, taking the set bits of ``host.occupied`` in
    ascending order, whose link is dense with few forbidden cycles, with the
    verdict of every Y-pair of that link.

    Derandomizes the expectation argument over a random z by exhaustive scan:
    conditions are e(L_z) >= (C/2) n**(2-delta) and
    B_z <= (2K/C) n**(1+delta) e(L_z), with n = max class size.  Each
    condition is one exact integer cutoff (see ``exact``): the first is
    worked out once and read against ``host.link_size``, so a link graph is
    built (``index.link``) only for a z that passes it; the second once per
    such z.  A cutoff (1) above n_x n_y, the most edges a link can have,
    refuses before any e(L_z) is counted.

    A Y-pair of common degree d carries at most C(d, 2) forbidden cycles,
    so B_z <= T_z, the sum of C(d, 2) over the Y-pairs (the link's 4-cycle
    count).  The degrees are worked out one row of pairs (y1, y2 > y1) at a
    time, one popcount per pair, and T_z is the sum of the rows' sums.
    When T_z meets the cutoff, (2) holds, and ``count_forbidden`` walks
    only the open pairs: those whose goodness (``good_pair_rule``, read
    with the q that e(L_z) fixes) turns on their count.  Otherwise it walks
    the whole link, and B_z is exact.  Either way the one pass settles
    every Y-pair of the chosen link, and the choice carries those verdicts
    as ``bad_pairs``, the number (2) was decided on and q = n**(-eps),
    realized from the link's density.  A pair's degree class decides it
    unless its degree is open: below ceil(n q**2) it is bad whatever its
    count, and otherwise good unless its walked count makes it bad.  A y
    with no neighbour is in a bad pair with every other y, as
    ceil(n q**2) >= 1.
    """
    if not host.occupied:  # no face
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
        e_l = host.link_size(z)
        # (1): e(L_z) >= (C/2) n**(2 - delta)
        if e_l < e_min:
            best_diag.append((z, e_l, None))
            continue
        link = index.link(z)
        q = min(Fraction(1), Fraction(2 * e_l) / (C * n * n))
        # (2): B_z <= (2K/C) n**(1 + delta) e(L_z)
        b_max = floor_pow(2 * K * e_l / C, n, 1 + cfg.delta)
        ymasks = link.y_masks
        # rows[y1][j], the common degree of the Y-pair (y1, y1 + 1 + j)
        rows = [[(m & m2).bit_count() for m2 in ymasks[y1 + 1:]] for y1, m in enumerate(ymasks)]
        top = max(map(int.bit_count, ymasks))  # no Y-pair has a higher degree
        cycles = [d * (d - 1) // 2 for d in range(top + 1)]  # C(d, 2)
        t_z = sum(sum(map(cycles.__getitem__, row)) for row in rows)
        good = good_pair_rule(K, C, n, q)
        settled = t_z <= b_max  # (2) holds; walk the pairs whose count decides
        walked = None  # every pair
        if settled:
            opens = [good(d, 0) and not good(d, cycles[d]) for d in range(top + 1)]
            n_y = link.n_y
            walked = [
                (y1, y2)
                for y1, row in enumerate(rows)
                for y2 in compress(range(y1 + 1, n_y), map(opens.__getitem__, row))
            ] if any(opens) else []
        b_z, by_pair = count_forbidden(link, K, walked)
        if not settled and b_z > b_max:
            best_diag.append((z, e_l, b_z))
            continue
        return LinkChoice(
            link=link, forbidden_count=t_z if settled else b_z,
            forbidden_exact=not settled, bad_pairs=_pair_verdicts(rows, by_pair, good, top), q=q,
        )
    raise NoQualifyingVertex(f"{refusal}; per-z diagnostics: {best_diag[:10]}")


def _pair_verdicts(
    rows: list[list[int]],
    by_pair: dict[tuple[int, int], int],
    good: Callable[[int, int], bool],
    top: int,
) -> tuple[int, ...]:
    """Per y, the bitmask of the y' with {y, y'} a bad pair, from the
    degree rows of ``pick_link_vertex`` (no degree above ``top``) and the
    counts of its walk.

    ``good(d, 0)`` fails exactly when d < ceil(n q**2), whatever the
    count, so those pairs are read off the rows by degree, as a flag
    matrix: byte y1 * n_y + y2 is 1 when y1 < y2 and the pair's degree is
    that low.  Row y of the matrix holds the y' above y of such pairs, and
    column y those below it.  Any other pair is bad only if its count
    makes it so, and a pair that the walk counted no forbidden cycle for
    is good; so only the pairs in ``by_pair`` are tested with ``good``.
    """
    n_y = len(rows)
    short = [not good(d, 0) for d in range(top + 1)]
    short_flags = b"".join([bytes(y1 + 1) + bytes(map(short.__getitem__, row)) for y1, row in enumerate(rows)])
    bad = [mask_of(short_flags[y * n_y:(y + 1) * n_y]) | mask_of(short_flags[y::n_y]) for y in range(n_y)]
    for (y1, y2), forb in by_pair.items():
        if not good(rows[y1][y2 - y1 - 1], forb):
            bad[y1] |= 1 << y2
            bad[y2] |= 1 << y1
    return tuple(bad)

