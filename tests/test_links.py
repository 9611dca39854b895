import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import comb

import pytest

from conftest import complete_host, pair_verdicts, random_host
from homeofind.core import Config, TripartiteHost
from homeofind.embed import classify_pairs_triples
from homeofind.errors import NoQualifyingVertex
from homeofind.exact import ceil_pow, floor_pow
from homeofind.harness import gen_random_host
from homeofind.io import load_target
from homeofind.links import (
    HostIndex,
    LinkGraph,
    count_forbidden,
    good_pair_rule,
    open_partners,
    pick_link_vertex,
)
from oracles import (
    count_disks,
    expectation_oracle,
    forbidden_expectation_oracle,
    host_faces,
    iter_link_cycles,
    table,
)

SMALL = TripartiteHost(
    (2, 2, 2), frozenset({(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)})
)


def brute_force_cycles(host, z):
    """All 4-cycles of L_z with disk counts via raw quadruple scan."""
    faces = set(host_faces(host))
    out = {}
    for x1, x2 in itertools.combinations(range(host.n_x), 2):
        for y1, y2 in itertools.combinations(range(host.n_y), 2):
            in_link = all(
                (x, y, z) in faces for x in (x1, x2) for y in (y1, y2)
            )
            if in_link:
                c = (x1, x2, y1, y2)
                out[c] = count_disks(host, c)
    return out


class TestLinkGraph:
    def test_complete_two_by_two(self):
        link = HostIndex(SMALL).link(0)
        assert (link.gamma(0), link.gamma(1)) == link.y_masks == (0b11, 0b11)
        assert link.e == 4

    def test_empty_link(self):
        assert HostIndex(SMALL).link(1).e == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            HostIndex(SMALL).link(2)
        with pytest.raises(IndexError):
            LinkGraph(SMALL, 2)

    def test_repr_holds_no_host_table(self):
        # a link or a choice shown in a failed assertion or a log line
        # names its z, not the host's z-mask table
        host = gen_random_host(60, 60, 60, 0.9, 1)
        assert repr(LinkGraph(host, 0)) == "LinkGraph(z=0)"
        choice = pick_link_vertex(host, Config(C=2), K=3, index=HostIndex(host))
        shown = repr(choice)
        assert shown.startswith(f"LinkChoice(link=LinkGraph(z={choice.link.z}), ")
        assert "TripartiteHost" not in shown and "masks=" not in shown

    def test_matches_face_filter(self):
        rng = random.Random(11)
        host = random_host(rng, 8, 7, 6, 0.3)
        index = HostIndex(host)
        for z in range(host.n_z):
            link = index.link(z)
            expected = {(x, y) for (x, y, zz) in host_faces(host) if zz == z}
            assert {
                (x, y) for x in range(host.n_x) for y in range(host.n_y) if link.gamma(x) >> y & 1
            } == expected


class TestCountDisks:
    def test_single_center(self):
        assert count_disks(SMALL, (0, 1, 0, 1)) == 1

    def test_complete_host_every_z(self):
        host = complete_host(5)
        assert count_disks(host, (0, 1, 0, 1)) == 5

    def test_two_paths_agree(self):
        rng = random.Random(5)
        host = random_host(rng, 6, 6, 6, 0.4)
        for c in [(0, 1, 0, 1), (1, 3, 2, 4), (0, 5, 1, 2)]:
            assert count_disks(host, c) == host.disk_mask(*c).bit_count()


def forbidden_by_pair(cycles, K):
    """Per Y-pair, how many of ``cycles`` (cycle -> disk count) bound at
    most K disks; pairs with none are left out, as in count_forbidden."""
    by_pair = {}
    for c, d in cycles.items():
        if d <= K:
            by_pair[c[2:]] = by_pair.get(c[2:], 0) + 1
    return by_pair


class TestClassifyCycles:
    """A cycle bounding more than K disks is admissible, otherwise forbidden:
    ``disk_mask`` and ``count_forbidden``, the paths the search takes,
    against the raw quadruple scan."""

    def test_threshold_boundary(self):
        host = complete_host(3)
        index = HostIndex(host)
        link = index.link(0)
        d = 3  # every cycle bounds n_Z disks
        cycles = brute_force_cycles(host, 0)
        assert cycles and set(cycles.values()) == {d}
        # disk count == K: forbidden; disk count > K - 1: admissible
        assert count_forbidden(link, d) == (len(cycles), forbidden_by_pair(cycles, d))
        assert count_forbidden(link, d - 1) == (0, {})

    def test_no_cycles(self):
        host = TripartiteHost((2, 2, 1), frozenset({(0, 0, 0), (1, 1, 0)}))
        index = HostIndex(host)
        assert brute_force_cycles(host, 0) == {}
        assert count_forbidden(index.link(0), 1) == (0, {})

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        host = random_host(rng, 7, 7, 7, 0.45)
        index = HostIndex(host)
        for z in range(host.n_z):
            link = index.link(z)
            expected = brute_force_cycles(host, z)
            for c, d in expected.items():
                assert host.disk_mask(*c).bit_count() == d
            # at K = n_Z every cycle of the link is forbidden
            for K in (2, host.n_z):
                by_pair = forbidden_by_pair(expected, K)
                assert count_forbidden(link, K) == (sum(by_pair.values()), by_pair)

    def test_monotone_in_k(self):
        rng = random.Random(9)
        host = random_host(rng, 8, 8, 8, 0.5)
        index = HostIndex(host)
        link = index.link(0)
        cycles = brute_force_cycles(host, 0)
        for k in range(1, 6):
            want = forbidden_by_pair(cycles, k)
            lo, lo_pairs = count_forbidden(link, k)
            assert (lo, lo_pairs) == (sum(want.values()), want)
            hi, hi_pairs = count_forbidden(link, k + 1)
            # raising K never creates admissible cycles
            assert lo <= hi
            assert all(n <= hi_pairs.get(pair, 0) for pair, n in lo_pairs.items())


class TestExpectationIdentities:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_link_sizes_sum_to_face_count(self, seed):
        rng = random.Random(seed)
        host = random_host(rng, 9, 9, 9, 0.3)
        index = HostIndex(host)
        total = sum(index.link(z).e for z in range(host.n_z))
        assert total == host.e

    def test_disk_double_count(self):
        rng = random.Random(4)
        host = random_host(rng, 7, 7, 7, 0.5)
        index = HostIndex(host)
        seen = {}
        per_link_total = 0
        for z in range(host.n_z):
            for c in iter_link_cycles(index.link(z)):
                per_link_total += 1
                seen.setdefault(c, count_disks(host, c))
        assert per_link_total == sum(seen.values())

    @pytest.mark.parametrize("oracle", [expectation_oracle, partial(forbidden_expectation_oracle, K=3)])
    def test_oracles_refuse_a_host_without_z(self, oracle):
        # an average over Z needs some z
        with pytest.raises(ValueError, match="^host has no Z vertices$"):
            oracle(TripartiteHost((3, 3, 0), []))


class TestIterLinkCycles:
    """``iter_link_cycles`` yields each 4-cycle of the link once, as
    ``(x1, x2, y1, y2)`` with x1 < x2 and y1 < y2: the cycles of the raw
    quadruple scan, which builds exactly those tuples."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_quadruple_scan(self, seed):
        rng = random.Random(seed)
        host = random_host(rng, *(rng.randint(2, 8) for _ in range(3)), rng.uniform(0.3, 0.8))
        index = HostIndex(host)
        for z in range(host.n_z):
            cycles = list(iter_link_cycles(index.link(z)))
            assert len(set(cycles)) == len(cycles)
            assert set(cycles) == set(brute_force_cycles(host, z))


class _Reads(tuple):
    """A host's masks that count their reads by index (``reads``)."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def brute_force_forbidden(host, link, K):
    """Forbidden cycles per Y-pair via the oracle enumeration and face scan."""
    return forbidden_by_pair({c: count_disks(host, c) for c in iter_link_cycles(link)}, K)


class TestCountForbidden:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(5, 9)
        host = random_host(rng, n, n + 1, n - 1, rng.uniform(0.4, 0.9))
        index = HostIndex(host)
        # K = 0, small K, and K >= n_Z, where every cycle is forbidden
        for K in (0, 1, 2, 4, host.n_z, host.n_z + 2):
            for z in range(host.n_z):
                link = index.link(z)
                total, by_pair = count_forbidden(link, K)
                want = brute_force_forbidden(host, link, K)
                assert by_pair == want
                assert total == sum(want.values())
                if K >= host.n_z:
                    assert total == sum(1 for _ in iter_link_cycles(link))

    def test_empty_link(self):
        host = TripartiteHost((3, 3, 3), frozenset({(0, 0, 1)}))
        index = HostIndex(host)
        assert count_forbidden(index.link(0), 2) == (0, {})

    def test_single_column_links(self):
        # every face on y = 0 (or on x = 0): the links have no 4-cycles
        for faces in (
            {(x, 0, z) for x in range(4) for z in range(3)},
            {(0, y, z) for y in range(4) for z in range(3)},
        ):
            host = TripartiteHost((4, 4, 3), frozenset(faces))
            index = HostIndex(host)
            for K in (0, 5):
                assert count_forbidden(index.link(0), K) == (0, {})

    def test_size_bound_is_strict(self):
        # n_Z = 4, K = 2.  The one cycle x0 x1 / y0 y1 of L_0 has column
        # z-sets of size 3 in both orientations, so c1 + c2 = 6 = K + n_Z:
        # inclusion-exclusion only says it bounds >= 2 disks.  It bounds
        # exactly 2 (centers 0 and 1), so it is forbidden.
        sets = {
            (0, 0): range(4), (1, 1): range(4), (0, 1): (0, 1, 2), (1, 0): (0, 1, 3),
        }
        faces = frozenset((x, y, z) for (x, y), zs in sets.items() for z in zs)
        host = TripartiteHost((2, 2, 4), faces)
        index = HostIndex(host)
        assert count_disks(host, (0, 1, 0, 1)) == 2
        assert count_forbidden(index.link(0), 2) == (1, {(0, 1): 1})
        assert count_forbidden(index.link(0), 1) == (0, {})

    def test_pair_floor_is_strict(self):
        # n_Z = 5.  Every entry of the one cycle x0 x1 / y0 y1 of L_0 has 4
        # centers, so f(y0) = f(y1) = 4 and inclusion-exclusion over the four
        # entries says it bounds >= 2 (4 + 4) - 3 * 5 = 1 disk.  It bounds
        # exactly 1 (center 0): forbidden at K = 1, admissible at K = 0.
        sets = {
            (0, 0): (0, 2, 3, 4), (0, 1): (0, 1, 3, 4), (1, 0): (0, 1, 2, 4), (1, 1): (0, 1, 2, 3),
        }
        faces = frozenset((x, y, z) for (x, y), zs in sets.items() for z in zs)
        host = TripartiteHost((2, 2, 5), faces)
        index = HostIndex(host)
        assert count_disks(host, (0, 1, 0, 1)) == 1
        assert count_forbidden(index.link(0), 1) == (1, {(0, 1): 1})
        assert count_forbidden(index.link(0), 0) == (0, {})

    @staticmethod
    def check_walks(host, K, z=0):
        """``count_forbidden`` on L_z against the oracle walk, for every pair
        and for every third pair (some with fewer than two common
        neighbours); returns the mask reads by index that the two walks
        made, which only building a column does."""
        link = HostIndex(host).link(z)
        want = brute_force_forbidden(host, link, K)
        given = list(itertools.combinations(range(host.n_y), 2))[::3]
        part = {pair: forb for pair, forb in want.items() if pair in given}
        host.masks.reads = 0
        assert count_forbidden(link, K) == (sum(want.values()), want)
        assert count_forbidden(link, K, given) == (sum(part.values()), part)
        return host.masks.reads

    def test_size_sums_settle_pairs_the_floor_leaves_open(self):
        # n_Z = 12, L_0 complete on 6 x 6.  Entry (x, y) holds every center
        # but when x = y, where it holds the 8 centers 0..7.  So f(y) = 8
        # for every y, and the floor 2 (8 + 8) - 3 * 12 = -4 settles no
        # pair.  The sizes of a pair's two entries at x add up to 24,
        # except 20 at x = y1 and at x = y2, so every cycle through the
        # pair bounds at least 20 + 20 - 3 * 12 = 4 disks: at K <= 3 the
        # sums settle every pair before any column is built.  At K = 12 =
        # n_Z every cycle is forbidden, and the columns are walked.
        faces = [
            (x, y, z) for x in range(6) for y in range(6) for z in range(8 if x == y else 12)
        ]
        by_key = table(TripartiteHost((6, 6, 12), faces))
        host = TripartiteHost._from_table((6, 6, 12), by_key, _Reads(by_key.values()))
        for K in (0, 1, 3):
            assert self.check_walks(host, K) == 0, K
        assert self.check_walks(host, 12) > 0
        assert count_forbidden(HostIndex(host).link(0), 12)[0] == comb(6, 2) ** 2

    def test_columns_walked_where_sizes_leave_pairs_open(self):
        # a dense host where, at each K in {0, 1, 3}, the floor settles a
        # pair, the size sums settle others and the rest are walked column
        # by column (the split recomputed from the faces; at K = 12 every
        # pair is walked); each walk must match the oracle's
        host = random_host(random.Random(3), 7, 7, 12, 0.8)
        by_key = table(host)
        host = TripartiteHost._from_table(host.class_sizes, by_key, _Reads(by_key.values()))
        size = Counter((x, y) for x, y, _ in host_faces(host))
        ym = HostIndex(host).link(0).y_masks
        f = [min(size[x, y] for x in range(7) if ym[y] >> x & 1) for y in range(7)]
        for K in (0, 1, 3, 12):
            assert self.check_walks(host, K) > 0, K
            split = Counter()
            for y1, y2 in itertools.combinations(range(7), 2):
                common = [x for x in range(7) if (ym[y1] & ym[y2]) >> x & 1]
                sums = sorted(size[x, y1] + size[x, y2] for x in common)
                if len(common) < 2:
                    continue
                if 2 * (f[y1] + f[y2]) - 3 * 12 > K:
                    split["floor"] += 1
                elif sums[0] + sums[1] - 3 * 12 > K:
                    split["sums"] += 1
                else:
                    split["walked"] += 1
            assert len(split) == (1 if K == 12 else 3), (K, split)
        assert count_forbidden(HostIndex(host).link(0), 1)[0] > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_on_dense_hosts(self, seed):
        # dense hosts, where the per-y floor 2 (f(y1) + f(y2)) - 3 n_Z often
        # exceeds K; the split between the Y-pairs it settles and those
        # walked is recomputed from the faces, and both must occur
        seen = Counter()
        for trial in range(2):
            rng = random.Random(900 + 10 * seed + trial)
            n = rng.randint(8, 16)
            host = random_host(rng, n, n, n, rng.uniform(0.85, 1))
            index = HostIndex(host)
            size = Counter((x, y) for x, y, _ in host_faces(host))
            link = index.link(rng.randrange(n))
            # brute_force_forbidden, with the disk counts shared by every K
            disks = {c: count_disks(host, c) for c in iter_link_cycles(link)}
            ym = link.y_masks
            f = {y: min(size[x, y] for x in range(n) if ym[y] >> x & 1) for y in range(n) if ym[y]}
            for K in (0, 1, 3, host.n_z - 1):
                want = forbidden_by_pair(disks, K)
                assert count_forbidden(link, K) == (sum(want.values()), want)
                for y1, y2 in itertools.combinations(sorted(f), 2):
                    if (ym[y1] & ym[y2]).bit_count() < 2:
                        continue
                    if 2 * (f[y1] + f[y2]) - 3 * host.n_z > K:
                        seen["settled"] += 1
                        assert (y1, y2) not in want
                    else:
                        seen["walked"] += 1
        assert seen["settled"] and seen["walked"], seen

    def test_choice_carries_the_pass(self):
        # settled with no open pair, settled with open pairs, walked whole
        for n_z, p, K, C, exact in [
            (10, 0.7, 3, 1, False), (3, 0.7, 1, 2, False), (2, 0.95, 1, 3, True)
        ]:
            host = random_host(random.Random(6), 10, 10, n_z, p)
            index = HostIndex(host)
            cfg = Config(C=C)
            choice = pick_link_vertex(host, cfg, K=K, index=index)
            link, q = choice.link, choice.q
            b_z, full = count_forbidden(link, K)
            assert choice.forbidden_exact == exact
            want = full_walk_verdicts(link, K, cfg.C, 10, q, full)
            assert choice.bad_pairs == want
            assert classify_pairs_triples(link, choice.bad_pairs, range(10), 10, q) == (
                classify_pairs_triples(link, want, range(10), 10, q)
            )
            if exact:
                assert choice.forbidden_count == b_z
            else:
                b_max = floor_pow(2 * K * choice.link.e / cfg.C, 10, 1 + cfg.delta)
                assert b_z <= choice.forbidden_count <= b_max


def random_column(rng, n_z):
    """A random z-set over n_z centers, of a random density."""
    p = rng.random()
    return sum(1 << z for z in range(n_z) if rng.random() < p)


class TestOpenPartners:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_plain_rule_on_random_columns(self, seed):
        # A partner before lo must be forbidden, (a & b).bit_count() <= K,
        # and one from hi on admissible, on the columns drawn.  A partner in
        # [lo, hi) must be open by its size: of two columns of its size, one
        # sharing all it can with a (min(c, c') centers) and one as little
        # (max(0, c + c' - n_Z)), the plain rule admits the first and not
        # the second.  So every partner the sizes settle is settled.
        rng = random.Random(seed)
        seen = Counter()
        for _ in range(300):
            n_z = rng.randint(1, 8)
            K = rng.randrange(n_z)
            cols = sorted((random_column(rng, n_z) for _ in range(rng.randint(1, 8))), key=int.bit_count)
            sizes = [b.bit_count() for b in cols]
            a = random_column(rng, n_z)
            c = a.bit_count()
            end = rng.randint(0, len(cols))
            lo, hi = open_partners(c, sizes, K, n_z, end)
            assert 0 <= lo <= hi <= end
            assert (lo, hi) == open_partners(c, sizes[:end], K, n_z, end)
            inside = (1 << c) - 1  # a as the lowest c centers
            for i, b in enumerate(cols[:end]):
                c2 = sizes[i]
                most = ((1 << c2) - 1 & inside).bit_count() > K
                least = (((1 << c2) - 1) << (n_z - c2) & inside).bit_count() > K
                assert (i < lo) == (not most)
                assert (i >= hi) == least
                if i < lo or i >= hi:
                    assert ((a & b).bit_count() > K) == (i >= hi)
                seen["c = K"] += c == K
                seen["c + c' - n_Z = K"] += c + c2 - n_z == K and min(c, c2) > K
        assert seen["c = K"] and seen["c + c' - n_Z = K"], seen


def full_walk_verdicts(link, K, C, n, q, full):
    """The pair verdicts of ``good_pair_rule`` on the counts ``full`` of a
    whole-link walk."""
    return pair_verdicts(link, good_pair_rule(K, C, n, q), full)


def cycle_count(link):
    """T_z, the number of 4-cycles of the link, counted over X-pairs."""
    xm = [link.gamma(x) for x in range(link.n_x)]
    return sum(
        comb((a & b).bit_count(), 2) for a, b in itertools.combinations(xm, 2)
    )


def full_walk_scan(host, cfg, K, index, walks):
    """The z-scan with every link that passes (1) walked whole: the first z
    meeting (1) and (2), or None, and how many z met (1) but not (2).
    ``walks`` caches ``count_forbidden`` by z (it depends on K alone)."""
    n = max(host.class_sizes)
    e_min = ceil_pow(cfg.C / 2, n, 2 - cfg.delta)
    failed = 0
    for z in range(host.n_z):
        e_l = host.link_size(z)
        if e_l < e_min:
            continue
        if z not in walks:
            walks[z] = count_forbidden(index.link(z), K)
        if walks[z][0] <= floor_pow(2 * K * e_l / cfg.C, n, 1 + cfg.delta):
            return z, failed
        failed += 1
    return None, failed


def check_full_walk_decisions(host, seen):
    """``pick_link_vertex`` against ``full_walk_scan`` on one host, for K
    from 1 to past n_Z and C from a loose (2) to a tight one: the same z,
    the same number (2) was decided on, and the pair verdicts of a whole
    walk.  Returns the links chosen; ``seen`` counts the cases met."""
    n = max(host.class_sizes)
    index = HostIndex(host)
    chosen = []
    for K in (1, 2, 3, 14):
        walks = {}
        for C in (Fraction(1, 2), 1, 2, 3):
            cfg = Config(C=C)
            z, failed = full_walk_scan(host, cfg, K, index, walks)
            seen["walked and failed (2)"] += failed
            if z is None:
                with pytest.raises(NoQualifyingVertex):
                    pick_link_vertex(host, cfg, K, index)
                continue
            choice = pick_link_vertex(host, cfg, K, index)
            link, q = choice.link, choice.q
            chosen.append(choice)
            assert link.z == z, (K, C)
            b_z, full = walks[z]
            t_z = cycle_count(link)
            b_max = floor_pow(2 * K * link.e / cfg.C, n, 1 + cfg.delta)
            assert choice.forbidden_exact == (t_z > b_max)
            if choice.forbidden_exact:
                seen["walked whole"] += 1
                assert choice.forbidden_count == b_z
            else:
                seen["settled"] += 1
                assert choice.forbidden_count == t_z
            want = full_walk_verdicts(link, K, cfg.C, n, q, full)
            assert choice.bad_pairs == want, (K, C)
            ys = range(host.n_y)
            assert classify_pairs_triples(link, choice.bad_pairs, ys, n, q) == (
                classify_pairs_triples(link, want, ys, n, q)
            )
            # a walked count that decides a pair's goodness
            seen["count decides"] += full_walk_verdicts(link, K, cfg.C, n, q, {}) != want
    return chosen


class TestSameDecisions:
    """The bounded z-scan decides as the scan that walks every link whole."""

    CASES = ("settled", "walked whole", "walked and failed (2)", "count decides")

    def test_matches_full_walk_scan(self):
        seen = Counter()
        # dense hosts with two Z-vertices walk links whole
        for seed in range(24):
            rng = random.Random(700 + seed)
            n = rng.randint(12, 18)
            host = random_host(rng, n, n, rng.choice([2, 2, 3, n]), rng.uniform(0.6, 1))
            check_full_walk_decisions(host, seen)
        assert all(seen[k] for k in self.CASES), seen

    def test_matches_full_walk_scan_off_square_with_lonely_y(self):
        # n_x != n_y, either way round, so that a row of Y-pairs and the X
        # side worked out from the Y side differ in length; in every other
        # host one y has no face at all, so it has no neighbour in any link
        seen = Counter()
        for seed in range(16):
            rng = random.Random(1200 + seed)
            n_x, n_y = rng.sample(range(10, 19), 2)
            host = random_host(rng, n_x, n_y, rng.choice([2, 2, 3, n_y]), rng.uniform(0.6, 1))
            lonely = None
            if seed % 2:
                lonely = rng.randrange(n_y)
                host = TripartiteHost(host.class_sizes, [f for f in host_faces(host) if f[1] != lonely])
            for choice in check_full_walk_decisions(host, seen):
                link = choice.link
                seen["n_x < n_y" if n_x < n_y else "n_x > n_y"] += 1
                assert tuple(map(link.gamma, range(n_x))) == tuple(
                    sum(1 << y for y in range(n_y) if host.has(x, y, link.z)) for x in range(n_x)
                )
                if lonely is not None:
                    # bad with every other y, as ceil(n q**2) >= 1
                    assert link.y_masks[lonely] == 0
                    assert choice.bad_pairs[lonely] == (1 << n_y) - 1 - (1 << lonely)
                    seen["lonely y"] += 1
        assert all(seen[k] for k in self.CASES + ("n_x < n_y", "n_x > n_y", "lonely y")), seen


class TestPickLinkVertex:
    def test_complete_host_returns_first(self):
        host = complete_host(6)
        choice = pick_link_vertex(host, Config(C=1), K=3, index=HostIndex(host))
        assert choice.link.z == 0
        assert choice.link.e == 36
        assert choice.q == 1  # link denser than (C/2) n^2 clamps eps to 0

    def test_empty_host(self):
        host = TripartiteHost((3, 3, 3), frozenset())
        with pytest.raises(NoQualifyingVertex):
            pick_link_vertex(host, Config(C=1), K=3, index=HostIndex(host))

    def test_sparse_host_rejected(self):
        host = TripartiteHost((4, 4, 4), frozenset({(0, 0, 0)}))
        with pytest.raises(NoQualifyingVertex):
            pick_link_vertex(host, Config(C=4), K=3, index=HostIndex(host))

    def test_conditions_hold_by_independent_recomputation(self):
        rng = random.Random(21)
        n = 20
        host = random_host(rng, n, n, n, n ** (-0.2))
        cfg = Config(C=Fraction(1, 2))
        K = 3
        choice = pick_link_vertex(host, cfg, K=K, index=HostIndex(host))
        e_l = choice.link.e
        # (1): (2 e)^5 >= C^5 n^9, checked in integers (C = 1/2, delta = 1/5)
        assert (2 * e_l) ** 5 >= Fraction(1, 2) ** 5 * n ** 9
        # (2): (B C)^5 <= (2K)^5 n^6 e^5
        b = choice.forbidden_count
        brute_b = sum(
            1 for c in iter_link_cycles(choice.link) if count_disks(host, c) <= K
        )
        if choice.forbidden_exact:
            assert b == brute_b
        else:  # the 4-cycle count of the link, which settled (2)
            assert brute_b <= b
        assert (Fraction(b) * cfg.C) ** 5 <= (2 * K) ** 5 * n ** 6 * e_l ** 5

    def test_density_condition_at_exact_boundary(self):
        # n = 4, C = 2, delta = 1/2: condition (1) is e(L_z) >= 4**(3/2) = 8.
        # L_0 has 7 edges and L_1 exactly 8, so z = 1 is chosen, and the
        # scan builds a link graph for it alone.
        cells = list(itertools.product(range(4), range(4)))
        faces = frozenset(
            [(x, y, 0) for x, y in cells[:7]] + [(x, y, 1) for x, y in cells[:8]]
        )
        host = TripartiteHost((4, 4, 2), faces)
        index = HostIndex(host)
        built = []
        link = index.link
        index.link = lambda z: built.append(z) or link(z)
        choice = pick_link_vertex(host, Config(C=2, delta=Fraction(1, 2)), K=3, index=index)
        assert (choice.link.z, choice.link.e) == (1, 8)
        assert built == [1]

    def test_bound_settles_at_exact_cutoff(self):
        # complete 6-host, K = 1, delta = 1: each link has T_z = C(6, 2)**2
        # = 225 4-cycles, and (2) is B_z <= (2K e / C) n**2 = 93312 / C.
        # At C = 288/25 the cutoff is exactly 225, so T_z settles (2) with
        # no whole walk; one step above it, the link is walked whole and
        # every cycle, bounding 6 > K disks, is admissible.
        host = complete_host(6)
        index = HostIndex(host)
        at = Fraction(288, 25)
        choice = pick_link_vertex(host, Config(C=at, delta=1), K=1, index=index)
        assert (choice.link.z, choice.forbidden_count, choice.forbidden_exact) == (0, 225, False)
        over = pick_link_vertex(
            host, Config(C=at + Fraction(1, 10 ** 6), delta=1), K=1, index=index
        )
        assert (over.link.z, over.forbidden_count, over.forbidden_exact) == (0, 0, True)

    def test_earlier_z_really_fail(self):
        # the scan must return the first qualifying z in index order
        rng = random.Random(2)
        host = random_host(rng, 15, 15, 15, 0.5)
        cfg = Config(C=Fraction(3, 2))
        K = 2
        index = HostIndex(host)
        choice = pick_link_vertex(host, cfg, K=K, index=index)
        a, d = cfg.C.numerator, cfg.C.denominator
        for z in range(choice.link.z):
            link = index.link(z)
            e_l = link.e
            # (1): e_l >= (C/2) 15**(9/5), in integers
            dense = e_l > 0 and (2 * e_l * d) ** 5 >= 15 ** 9 * a ** 5
            if not dense:
                continue
            b = sum(1 for c in iter_link_cycles(link) if count_disks(host, c) <= K)
            # (2) fails: b > (2K/C) 15**(6/5) e_l, in integers
            assert (b * a) ** 5 > (2 * K * e_l * d) ** 5 * 15 ** 6

    def test_scans_only_occupied_z(self, monkeypatch):
        # n_Z = 10**12, faces only at z < 7: the scan reads e(L_z) for those
        # seven z alone, where a scan of range(n_Z) would never finish.  With
        # delta = 1, (1) needs (C/2) 10**12 = 1600 = n_x n_y edges, within
        # reach of a link, and each link misses the face (0, 0, z).
        faces = [f for f in itertools.product(range(40), range(40), range(7)) if f[:2] != (0, 0)]
        host = TripartiteHost((40, 40, 10 ** 12), faces)
        seen = []
        link_size = TripartiteHost.link_size

        def counted(self, z):
            seen.append(z)
            if len(seen) > 7:
                raise AssertionError(f"link_size read for z = {z}, which has no face")
            return link_size(self, z)

        monkeypatch.setattr(TripartiteHost, "link_size", counted)
        cfg = Config(C=Fraction(3200, 10 ** 12), delta=1)
        with pytest.raises(NoQualifyingVertex, match=r"\(6, 1599, None\)\]$"):
            pick_link_vertex(host, cfg, K=3, index=HostIndex(host))
        assert seen == list(range(7))

    def test_skips_empty_z_and_keeps_first_choice(self):
        # faces at z = 2 (sparse) and z = 9 (complete on 4 x 4) only.  With
        # n = 12 and delta = 1, condition (1) is e(L_z) >= 6C, within the 25
        # edges a link can have up to C = 4: the scan reports z = 2 and picks
        # z = 9 at C = 1, and reports both at C = 3.
        faces = [(0, 0, 2)] + list(itertools.product(range(4), range(4), [9]))
        host = TripartiteHost((5, 5, 12), faces)
        index = HostIndex(host)
        choice = pick_link_vertex(host, Config(C=1, delta=1), K=3, index=index)
        assert (choice.link.z, choice.link.e) == (9, 16)
        with pytest.raises(NoQualifyingVertex, match=r"\[\(2, 1, None\), \(9, 16, None\)\]"):
            pick_link_vertex(host, Config(C=3, delta=1), K=3, index=index)

    def test_refusal_names_the_density_cutoff(self):
        # paper constants at n = 90: (1) needs (C/2) 90**(9/5) edges, with
        # C = 2000 * 3**6, where a link has at most 90 * 90
        host = gen_random_host(90, 90, 90, 1, 0)
        cfg = Config.paper_defaults(load_target("builtin:triangle"))
        index = HostIndex(host)
        with pytest.raises(NoQualifyingVertex) as info:
            pick_link_vertex(host, cfg, K=81, index=index)
        assert str(info.value).endswith(
            "; (1) needs e(L_z) >= 2400844573 > n_x n_y = 8100, so no link can pass (1)"
        )
        # refused on the cutoff alone: no e(L_z) read, no byte column cut
        assert "per-z" not in str(info.value)
        assert "byte_columns" not in vars(host)

    def test_refusal_within_reach_names_only_the_cutoff(self):
        # n = 4, C = 1, delta = 1: (1) needs 2 edges, and each link has 1
        host = TripartiteHost((4, 4, 4), {(z, z, z) for z in range(4)})
        with pytest.raises(NoQualifyingVertex) as info:
            pick_link_vertex(host, Config(C=1, delta=1), K=3, index=HostIndex(host))
        assert str(info.value).endswith(
            "; (1) needs e(L_z) >= 2; per-z diagnostics: "
            "[(0, 1, None), (1, 1, None), (2, 1, None), (3, 1, None)]"
        )


def check_cutoffs(c, n, expo):
    """floor_pow and ceil_pow against their definition, in ints.

    With c = a/b and expo = p/r (p >= 0), m = floor(c n**expo) exactly when
    (m b)**r <= a**r n**p < ((m + 1) b)**r, and M = ceil(c n**expo) exactly
    when ((M - 1) b)**r < a**r n**p <= (M b)**r.
    """
    c, expo = Fraction(c), Fraction(expo)
    a, b, p, r = c.numerator, c.denominator, expo.numerator, expo.denominator
    power = a ** r * n ** p
    lo, hi = floor_pow(c, n, expo), ceil_pow(c, n, expo)
    assert (lo * b) ** r <= power < ((lo + 1) * b) ** r, (c, n, expo)
    assert power <= (hi * b) ** r, (c, n, expo)
    assert hi == 0 or ((hi - 1) * b) ** r < power, (c, n, expo)
    return lo, hi


class TestPowCutoffs:
    def test_random_inputs_match_definition(self):
        rng = random.Random(17)
        for _ in range(300):
            c = Fraction(rng.randint(0, 100), rng.randint(1, 10))
            n = rng.choice([1, 2, rng.randint(3, 1000), rng.randint(1, 10 ** 12)])
            expo = Fraction(rng.randint(0, 12), rng.randint(1, 7))
            check_cutoffs(c, n, expo)

    def test_exact_powers(self):
        # 32**(9/5) = 2**9 and (2**10)**(3/2) = 2**15: floor and ceil meet
        assert check_cutoffs(1, 32, Fraction(9, 5)) == (512, 512)
        assert check_cutoffs(1, 2 ** 10, Fraction(3, 2)) == (2 ** 15, 2 ** 15)
        assert check_cutoffs(Fraction(3, 4), 32, Fraction(9, 5)) == (384, 384)
        # just off an exact power, the two cutoffs part
        below = Fraction(2 ** 16 - 1, 2 ** 16)  # times 2**15 is 2**15 - 1/2
        assert check_cutoffs(below, 2 ** 10, Fraction(3, 2)) == (2 ** 15 - 1, 2 ** 15)
        assert check_cutoffs(1, 31, Fraction(9, 5)) == (483, 484)

    def test_fractional_exponent(self):
        # 2**(3/2) = 2.828...
        assert check_cutoffs(1, 2, Fraction(3, 2)) == (2, 3)
        assert check_cutoffs(Fraction(1, 2), 2, Fraction(3, 2)) == (1, 2)

    def test_integer_exponent(self):
        # delta = 1 makes 2 - delta = 1 and 1 + delta = 2 (r = 1)
        assert check_cutoffs(Fraction(7, 2), 10, 1) == (35, 35)
        assert check_cutoffs(Fraction(7, 3), 10, 1) == (23, 24)
        assert check_cutoffs(Fraction(1, 3), 10, 2) == (33, 34)

    def test_n_one(self):
        for expo in (Fraction(9, 5), Fraction(6, 5), Fraction(1), Fraction(0)):
            assert check_cutoffs(Fraction(7, 2), 1, expo) == (3, 4)
            assert check_cutoffs(5, 1, expo) == (5, 5)

    def test_zero_constant(self):
        assert check_cutoffs(0, 5, Fraction(9, 5)) == (0, 0)
        assert check_cutoffs(0, 10 ** 40, Fraction(6, 5)) == (0, 0)

    def test_huge_n(self):
        n = 10 ** 40
        assert check_cutoffs(1, n, Fraction(9, 5)) == (10 ** 72, 10 ** 72)
        half = 5 * 10 ** 47
        assert check_cutoffs(Fraction(1, 2), n, Fraction(6, 5)) == (half, half)
        lo, hi = check_cutoffs(Fraction(3, 7), n + 1, Fraction(9, 5))
        assert hi == lo + 1

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            floor_pow(-1, 4, Fraction(9, 5))
        with pytest.raises(ValueError):
            ceil_pow(1, 0, Fraction(9, 5))

    def test_density_cutoff_is_least_passing_link_size(self):
        # the z-scan's cutoff ceil_pow(C/2, n, 2 - delta) is the least e
        # with e >= (C/2) n**(2 - delta): (2e den C)**r >= n**p (num C)**r
        rng = random.Random(17)
        for _ in range(40):
            C = Fraction(rng.randint(1, 100), rng.randint(1, 10))
            delta = min(Fraction(rng.randint(1, 6), rng.choice([1, 6, 7])), Fraction(1))
            n = rng.choice([1, 2, rng.randint(3, 60)])
            expo = 2 - delta
            p, r = expo.numerator, expo.denominator
            passes = [
                (2 * e * C.denominator) ** r >= n ** p * C.numerator ** r
                for e in range(1, 2001)
            ]
            cutoff = ceil_pow(C / 2, n, expo)
            assert passes == [e >= cutoff for e in range(1, 2001)], (C, n, delta)
