import hashlib
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    HUB_N,
    HUB_ROWS,
    complete_host,
    hub_link,
    link_of,
    pair_masks,
    pair_verdicts,
    problem_of,
    random_host,
)
from homeofind import embed
from homeofind.core import (
    Config,
    HomeomorphCertificate,
    ThreeGraph,
    TripartiteHost,
    bits,
    build_aux_graph,
)
from homeofind.embed import (
    Embedding,
    ProblemGraph,
    assert_valid_embedding,
    assign_centers,
    build_problem_graph,
    classify_pairs_triples,
    embed_v2,
    find_complete_subgraph,
    find_homeomorph,
    select_core_set,
)
from homeofind.errors import (
    CapacityExceeded,
    CliqueNotFound,
    NoQualifyingVertex,
    NoQualifyingX,
    RetriesExhausted,
)
from homeofind.harness import gen_random_host
from homeofind.io import load_target, parse_certificate, write_certificate
from homeofind.links import (
    HostIndex,
    count_forbidden,
    good_pair_rule,
    pick_link_vertex,
)
from homeofind.verify import verify_certificate
from oracles import arc_consistency_oracle, clique_oracle, count_disks, disk_mask, host_faces

K4 = ThreeGraph(4, frozenset(itertools.combinations(range(4), 3)))
TRIANGLE = ThreeGraph(3, frozenset({(0, 1, 2)}))


def complete_link(n_x, n_y):
    return link_of(n_x, n_y, itertools.product(range(n_x), range(n_y)))


def only_link(link, target):
    """L_0 of the host whose 1 + 3 e(H) Z-vertices all have ``link`` as
    their link.

    With K = 0, every special cycle placed inside the link bounds 1 + 3 e(H)
    4-disks and is admissible, and the 3 e(H) of them other than z = 0 give
    every cycle its own center, so embed_v2 has only injectivity to meet.
    """
    n_z = 1 + 3 * target.e
    faces = frozenset(
        (x, y, z) for y, m in enumerate(link.y_masks) for x in bits(m) for z in range(n_z)
    )
    return HostIndex(TripartiteHost((link.n_x, link.n_y, n_z), faces)).link(0)


class TestClassifyPairsTriples:
    def test_matches_brute_force(self):
        # the pair verdicts of the z-scan and the triples of classification
        # against their definitions, on a host where the count decides 9
        # pairs, 28 of 36 pairs are bad and 40 of 84 triples
        n, K = 9, 1
        host = random_host(random.Random(13), n, n, 3, 0.6)
        index = HostIndex(host)
        choice = pick_link_vertex(host, Config(C=2), K, index)
        link, q = choice.link, choice.q
        pairs, bad_triples = classify_pairs_triples(link, choice.bad_pairs, range(n), n, q)
        assert [ps.pair for ps in pairs] == list(itertools.combinations(range(n), 2))

        def good_at(deg, forb):
            # deg >= n^(1-2eps) = n q^2 and forb <= (K/C) n^(1-3eps) deg, C = 2
            return deg >= n * q ** 2 and forb <= K * n * q ** 3 * deg / 2

        xm = [link.gamma(x) for x in range(link.n_x)]
        decided_by_count = 0
        for ps in pairs:
            y1, y2 = ps.pair
            gamma = [x for x in range(n) if xm[x] >> y1 & xm[x] >> y2 & 1]
            forb = sum(
                1
                for x1, x2 in itertools.combinations(gamma, 2)
                if count_disks(host, (x1, x2, y1, y2)) <= K
            )
            good = good_at(len(gamma), forb)
            decided_by_count += good != good_at(len(gamma), 0)
            assert ps.good == good
            assert (choice.bad_pairs[y1] >> y2 & 1, choice.bad_pairs[y2] >> y1 & 1) == (
                not good, not good
            ), ps.pair
        assert decided_by_count == 9
        assert sum(not ps.good for ps in pairs) == 28

        # bad_triples[(y1, y2)] has bit y3 exactly for the bad (y1, y2, y3),
        # y1 < y2 < y3, and holds no other bit and no empty mask
        assert all(bad for bad in bad_triples.values())
        assert sum(bad.bit_count() for bad in bad_triples.values()) == sum(
            1 for y1, y2, y3 in itertools.combinations(range(n), 3)
            if (bad_triples.get((y1, y2), 0) >> y3) & 1
        ) == 40
        for y1, y2, y3 in itertools.combinations(range(n), 3):
            deg = sum(1 for x in range(n) if xm[x] >> y1 & xm[x] >> y2 & xm[x] >> y3 & 1)
            # bad: deg < n^(1-3eps) = n q^3
            bit = (bad_triples.get((y1, y2), 0) >> y3) & 1
            assert bit == (deg < n * q ** 3), (y1, y2, y3)

    def test_all_forbidden_makes_pairs_bad(self):
        # complete 6-host, K = 6 = n_Z: every cycle is forbidden, so each
        # pair carries C(6, 2) = 15.  At C = 4 (delta = 1) the link passes
        # (1) with q = 1/2, and the pair bound (K/C) n q**3 d = 27/4 < 15
        n, K = 6, 6
        host = complete_host(n)
        index = HostIndex(host)
        choice = pick_link_vertex(host, Config(C=4, delta=1), K, index)
        assert choice.q == Fraction(1, 2)
        assert count_forbidden(choice.link, K) == (
            15 * 15, dict.fromkeys(itertools.combinations(range(n), 2), 15)
        )
        full = (1 << n) - 1
        assert choice.bad_pairs == tuple(full & ~(1 << y) for y in range(n))
        pairs, _ = classify_pairs_triples(choice.link, choice.bad_pairs, range(n), n, choice.q)
        assert len(pairs) == 15 and not any(ps.good for ps in pairs)

    def test_thresholds_at_exact_boundaries(self):
        # complete 8-host at C = 4, delta = 1: q = 2/C = 1/2, and with
        # K = 14 >= n_Z every pair has degree 8 and C(8, 2) = 28 forbidden
        # cycles.  n**(1-2eps) = n q**2 = 2, and the pair bound
        # (K/C) n q**3 d = (14/4) * 8 * (1/8) * 8 = 28: the count sits on it.
        n, q = 8, Fraction(1, 2)
        good = good_pair_rule(14, Fraction(4), n, q)
        assert good(8, 28) and not good(8, 29)
        assert good(2, 0) and not good(1, 0)
        assert not good_pair_rule(14, Fraction(4) + Fraction(1, 10 ** 6), n, q)(8, 28)
        at_k13 = good_pair_rule(13, Fraction(4), n, q)  # bound 26
        assert at_k13(8, 26) and not at_k13(8, 27)

        host = complete_host(8)
        index = HostIndex(host)
        at = pick_link_vertex(host, Config(C=4, delta=1), 14, index)
        assert at.q == q and at.bad_pairs == (0,) * 8
        pairs, bad_triples = classify_pairs_triples(at.link, at.bad_pairs, range(n), n, at.q)
        assert len(pairs) == 28 and all(ps.good for ps in pairs)
        assert bad_triples == {}  # every triple has degree 8 >= n q**3 = 1
        full = (1 << 8) - 1
        for cfg, K in [
            (Config(C=Fraction(4) + Fraction(1, 10 ** 6), delta=1), 14),
            (Config(C=4, delta=1), 13),
        ]:
            over = pick_link_vertex(host, cfg, K, index)
            assert over.bad_pairs == tuple(full & ~(1 << y) for y in range(8))

    def test_triple_cutoff_at_pair_degree_boundary(self):
        # n = 32, q = 1/2: n**(1-3eps) = 4.  Pair (0, 1) has |Gamma| = 3, one below the cutoff,
        # so every triple through it is bad, whatever y3's neighbours.  Pair
        # (0, 2) has |Gamma| = 4, exactly the cutoff: (0, 2, 3) keeps all four
        # common neighbours and is good, (0, 2, 4) keeps three and is bad.
        nbrs = {0: range(8), 1: range(3), 2: range(4), 3: range(8), 4: range(3)}
        faces = frozenset((x, y, 0) for y, xs in nbrs.items() for x in xs)
        link = HostIndex(TripartiteHost((8, 5, 1), faces)).link(0)
        _, bad_triples = classify_pairs_triples(link, (0,) * 5, range(5), n=32, q=Fraction(1, 2))
        ym = link.y_masks
        assert (ym[0] & ym[1]).bit_count() == 3 and (ym[0] & ym[2]).bit_count() == 4
        assert bad_triples[(0, 1)] == 1 << 2 | 1 << 3 | 1 << 4
        assert bad_triples[(0, 2)] == 1 << 4
        # brute force over all ten triples
        for tr in itertools.combinations(range(5), 3):
            deg = len(set.intersection(*(set(nbrs[y]) for y in tr)))
            assert (bad_triples.get(tr[:2], 0) >> tr[2]) & 1 == (deg < 4), tr

    def test_empty_common_neighbourhood_is_bad(self):
        # y0 and y1 share x0 and x1 in both links, so their one cycle bounds
        # two disks and is admissible at K = 1; y2 has no neighbour, and a
        # pair of common degree 0 is bad, as ceil(n q**2) >= 1
        faces = frozenset(itertools.product((0, 1), (0, 1), (0, 1)))
        host = TripartiteHost((3, 3, 2), faces)
        choice = pick_link_vertex(host, Config(C=2, delta=1), 1, HostIndex(host))
        assert choice.link.y_masks[2] == 0
        assert choice.bad_pairs == (0b100, 0b100, 0b011)
        pairs, _ = classify_pairs_triples(choice.link, choice.bad_pairs, range(3), 3, choice.q)
        assert [(ps.pair, ps.good) for ps in pairs] == [
            ((0, 1), True), ((0, 2), False), ((1, 2), False)
        ]


class TestSelectCoreSet:
    def test_complete_link_takes_first_x(self):
        host = complete_host(8)
        index = HostIndex(host)
        link = index.link(0)
        cfg = Config(C=1)
        choice = pick_link_vertex(host, cfg, 3, index)
        n, q = 8, choice.q
        assert choice.link == link and q == 1
        x, yprime = select_core_set(link, choice.bad_pairs, cfg, n, q)
        assert x == 0
        assert yprime == list(range(8))
        assert build_problem_graph(link, choice.bad_pairs, yprime, n, q).bad_triples == set()

    def test_empty_link(self):
        link = link_of(4, 4, ())
        with pytest.raises(NoQualifyingX):
            select_core_set(link, (0,) * 4, Config(C=1), 4, Fraction(1, 2))

    def test_scan_inequalities_hold_for_winner(self):
        rng = random.Random(31)
        n = 14
        host = random_host(rng, n, n, n, 0.6)
        index = HostIndex(host)
        link = index.link(0)
        cfg = Config(C=2)
        q = Fraction(7, 12)
        # the verdicts of the pair test on a whole-link walk, at a q set by hand
        bad_pair_masks = pair_verdicts(
            link, good_pair_rule(2, cfg.C, n, q), count_forbidden(link, 2)[1]
        )
        x, yprime = select_core_set(link, bad_pair_masks, cfg, n, q)

        # recompute everything independently
        xm = [link.gamma(x) for x in range(link.n_x)]
        gamma = [y for y in range(n) if xm[x] >> y & 1]
        assert sorted(yprime) == gamma
        s = len(gamma)
        bad_pairs = {
            pr for pr in itertools.combinations(range(n), 2)
            if bad_pair_masks[pr[0]] >> pr[1] & 1
        }
        assert bad_pairs  # the P_x inequality sees bad pairs

        def triple_bad(tr):
            # common degree below n^(1-3eps) = n q^3
            deg = sum(1 for x2 in range(n) if all(xm[x2] >> y & 1 for y in tr))
            return deg < n * q ** 3

        p_x = sum(1 for pr in itertools.combinations(gamma, 2) if pr in bad_pairs)
        t_x = sum(1 for tr in itertools.combinations(gamma, 3) if triple_bad(tr))
        assert t_x > 0  # the T_x inequality is exercised
        # D(Y') read off the link: the triples of Gamma(x) that are bad or
        # hold a bad pair
        assert build_problem_graph(link, bad_pair_masks, yprime, n, q).bad_triples == {
            tr for tr in itertools.combinations(gamma, 3)
            if triple_bad(tr) or any(pr in bad_pairs for pr in itertools.combinations(tr, 2))
        }
        C = cfg.C

        def passes(s, p_x, t_x):
            # (A), (B) and (C) with n^(1-eps) = n q and n^(2-2eps) = (n q)^2
            return (
                s > 0
                and Fraction(4 * s) / C >= n * q
                and C * p_x / (12 * (1 + C) * s) <= n * q
                and C * t_x / (6 * s) <= (n * q) ** 2
            )

        assert passes(s, p_x, t_x)
        # and every x scanned before the winner fails one of the inequalities
        for x2 in range(x):
            g2 = [y for y in range(n) if xm[x2] >> y & 1]
            assert not passes(
                len(g2),
                sum(1 for pr in itertools.combinations(g2, 2) if pr in bad_pairs),
                sum(1 for tr in itertools.combinations(g2, 3) if triple_bad(tr)),
            ), x2
        # guaranteed density of bad pairs/triples, with the weaker 600/C gate
        if s >= 2:
            assert Fraction(p_x) <= Fraction(400, 1) / C * (s * (s - 1) // 2)
        if s >= 3:
            assert Fraction(t_x) <= Fraction(600, 1) / C * (s * (s - 1) * (s - 2) // 6)


    def test_first_x_by_brute_force(self, monkeypatch):
        # Links of 8 X-rows over n = 27 Y-vertices, on a scale where the
        # T_x inequality decides: C = 10 and q = 10/27 give (A) s >= 25,
        # (B) P_x <= 132 s, which no pair count reaches, and (C)
        # T_x <= 60 s.  A triple is bad when fewer than n q**3 ~ 1.37 rows
        # hold it; one inside Gamma(x) always has x, so it is good just
        # when another row holds it too.  One to three "hub" rows of
        # density 0.95 can pass (A); a hub with no other hub beside it
        # keeps most of its triples bad and fails (C).  The winner must be
        # the first x passing (A), (B) and (C) with P_x and T_x counted over
        # itertools' pairs and triples of Gamma(x), and the triples must be
        # classified once per x passing (A) and (B), inside its Gamma(x).
        n_x, n, C, q = HUB_ROWS, HUB_N, 10, Fraction(10, 27)
        cfg = Config(C=C)
        classified = []

        def counting(link, bad_pairs, ys, n, q):
            classified.append(list(ys))
            return classify_pairs_triples(link, bad_pairs, ys, n, q)

        monkeypatch.setattr(embed, "classify_pairs_triples", counting)
        seen = {"decided by T_x": 0, "no x": 0, "found at x > 0": 0}
        for seed in range(30):
            link, bad_pairs = hub_link(random.Random(seed))
            rows = [{y for y in range(n) if link.gamma(x) >> y & 1} for x in range(n_x)]
            bad_triples = {
                tr for tr in itertools.combinations(range(n), 3)
                if sum(1 for r in rows if r.issuperset(tr)) < n * q ** 3
            }
            want, tested = None, []
            for x in range(n_x):
                gamma = sorted(rows[x])
                s = len(gamma)
                p_x = sum(1 for pr in itertools.combinations(gamma, 2) if pr in bad_pairs)
                if not (
                    s > 0
                    and Fraction(4 * s, C) >= n * q
                    and Fraction(C * p_x, 12 * (1 + C) * s) <= n * q
                ):
                    continue
                tested.append(gamma)
                inside = [tr for tr in itertools.combinations(gamma, 3) if tr in bad_triples]
                if Fraction(C * len(inside), 6 * s) <= (n * q) ** 2:
                    want = (x, gamma)
                    break
                seen["decided by T_x"] += 1
            classified.clear()
            masks = pair_masks(bad_pairs, n)
            if want is None:
                seen["no x"] += 1
                with pytest.raises(NoQualifyingX):
                    select_core_set(link, masks, cfg, n, q)
            else:
                seen["found at x > 0"] += want[0] > 0
                assert select_core_set(link, masks, cfg, n, q) == want, seed
            assert classified == tested, seed
        assert all(seen.values()), seen


def ywide_core_set(link, bad_pairs, cfg, n, q):
    """x, Y' and D(Y') as the Y-wide pipeline made them: every triple of Y
    classified into one table first, which the x-scan and D(Y') then mask
    down to Gamma(x).  The oracle of the one-pass ``select_core_set`` and
    ``build_problem_graph``; raises NoQualifyingX where the scan finds no x.
    """
    n_y, ymasks = link.n_y, link.y_masks
    triple_min = math.ceil(n * q ** 3)
    table = {}
    for y1, y2 in itertools.combinations(range(n_y), 2):
        m12 = ymasks[y1] & ymasks[y2]
        bad = sum(
            1 << y3 for y3 in range(y2 + 1, n_y)
            if (m12 & ymasks[y3]).bit_count() < triple_min
        )
        if bad:
            table[(y1, y2)] = bad

    C, nq = cfg.C, n * q
    for x in range(link.n_x):
        gmask = link.gamma(x)
        s = gmask.bit_count()
        ys = bits(gmask)
        p_x = sum((bad_pairs[y] & gmask).bit_count() for y in ys) // 2
        t_x = sum(
            (table.get((a, b), 0) & gmask).bit_count()
            for a, b in itertools.combinations(ys, 2)
        )
        if (
            s >= math.ceil(C * nq / 4)
            and not (p_x and p_x > 12 * (1 + C) * nq / C * s)
            and not (t_x and t_x > 6 * nq * nq / C * s)
        ):
            break
    else:
        raise NoQualifyingX("no x")

    d = set()
    for a, b in itertools.combinations(ys, 2):
        above = gmask & (-1 << (b + 1))
        if bad_pairs[a] >> b & 1:
            cs = above
        else:
            cs = above & (table.get((a, b), 0) | bad_pairs[a] | bad_pairs[b])
        d.update((a, b, c) for c in bits(cs))
    return x, ys, frozenset(d)


def one_pass_core_set(link, bad_pairs, cfg, n, q):
    """x, Y' and D(Y') from the shipped ``select_core_set`` and
    ``build_problem_graph``."""
    x, yprime = select_core_set(link, bad_pairs, cfg, n, q)
    return x, yprime, build_problem_graph(link, bad_pairs, yprime, n, q).bad_triples


def same_core_set(link, bad_pairs, cfg, n, q):
    """Assert that both pipelines choose the same x, Y' and D(Y'), or both
    find no x; returns the choice, or None."""
    try:
        want = ywide_core_set(link, bad_pairs, cfg, n, q)
    except NoQualifyingX:
        with pytest.raises(NoQualifyingX):
            one_pass_core_set(link, bad_pairs, cfg, n, q)
        return None
    assert one_pass_core_set(link, bad_pairs, cfg, n, q) == want
    return want


class TestSameCoreSetAsYWide:
    """Classifying only inside each scanned Gamma(x) decides as the Y-wide
    triple table did."""

    @pytest.mark.parametrize("target", [TRIANGLE, K4], ids=["triangle", "k4"])
    def test_random_hosts(self, target):
        # desk constants C = 2, K = 3 e(H); a host whose z-scan fails never
        # reaches the core set, so both pipelines fail there alike
        cfg = Config(C=2, k_threshold=3 * target.e)
        K = cfg.k_for(target)
        hosts = [(40, p, s) for p in (0.45, 0.55, 0.65, 0.8) for s in range(3)]
        seen = {"found": 0, "fails before the core set": 0, "non-empty D": 0}
        for n, p, seed in hosts + [(128, 0.5, 0)]:
            host = gen_random_host(n, n, n, p, seed)
            try:
                choice = pick_link_vertex(host, cfg, K, HostIndex(host))
            except NoQualifyingVertex:
                seen["fails before the core set"] += 1
                continue
            got = same_core_set(choice.link, choice.bad_pairs, cfg, n, choice.q)
            seen["found"] += got is not None
            seen["non-empty D"] += bool(got and got[2])
        assert all(seen.values()), seen

    def test_hub_links(self):
        # the links of test_first_x_by_brute_force, where (C) rejects a hub
        # and some links have no x at all
        cfg, q = Config(C=10), Fraction(10, 27)
        found = [
            same_core_set(link, pair_masks(bad_pairs, HUB_N), cfg, HUB_N, q)
            for link, bad_pairs in (hub_link(random.Random(seed)) for seed in range(30))
        ]
        assert None in found and any(got and got[0] > 0 for got in found)


class TestLazyCore:
    """(C) is settled by T_x <= C(s, 3) where that bound can, and D(Y') is
    worked out only for the pairs the clique search reads."""

    @pytest.mark.parametrize(
        "host",
        [complete_host(8), gen_random_host(60, 60, 60, 0.9, 3)],
        ids=["complete8", "n60-p0.9"],
    )
    def test_find_classifies_nothing_and_reads_few_pairs(self, host, monkeypatch):
        classified, problems = [], []
        classify, build = embed.classify_pairs_triples, embed.build_problem_graph

        def counting(*args):
            classified.append(args)
            return classify(*args)

        def keeping(*args):
            problems.append(build(*args))
            return problems[-1]

        monkeypatch.setattr(embed, "classify_pairs_triples", counting)
        monkeypatch.setattr(embed, "build_problem_graph", keeping)
        cert = find_homeomorph(host, TRIANGLE, Config(C=2, k_threshold=3))
        assert verify_certificate(cert, host).passed
        assert classified == []
        (pg,) = problems
        pairs = math.comb(len(pg.ground_set), 2)
        assert 0 < len(pg.masks) < pairs
        # reading D(Y') whole fills the memo, one entry per pair of Y'
        assert len(pg.bad_triples) == sum(map(int.bit_count, pg.masks.values()))
        assert len(pg.masks) == pairs

    def check_against(self, link, bad_pairs, cfg, n, q):
        """The memo's masks, pair by pair, and the clique search on it,
        against D(Y') from ``ywide_core_set``; False when no x passes."""
        try:
            x, yprime, want = ywide_core_set(link, bad_pairs, cfg, n, q)
        except NoQualifyingX:
            return False
        assert select_core_set(link, bad_pairs, cfg, n, q) == (x, yprime)
        whole = problem_of(yprime, want)
        for t in range(1, 6):
            pg = build_problem_graph(link, bad_pairs, yprime, n, q)
            try:
                got = find_complete_subgraph(pg, t)
            except CliqueNotFound as exc:
                with pytest.raises(CliqueNotFound) as again:
                    find_complete_subgraph(whole, t)
                assert str(exc) == str(again.value)
            else:
                assert got == find_complete_subgraph(whole, t)
        pg = build_problem_graph(link, bad_pairs, yprime, n, q)
        assert all(pg.masks[pr] == whole.masks[pr] for pr in itertools.combinations(yprime, 2))
        assert pg == whole
        return True

    def test_memo_matches_ywide_on_hub_links(self):
        # (C) counted: the scan classified the triples that the memo reads
        # off the link again
        cfg, q = Config(C=10), Fraction(10, 27)
        found = [
            self.check_against(link, pair_masks(bad_pairs, HUB_N), cfg, HUB_N, q)
            for link, bad_pairs in (hub_link(random.Random(seed)) for seed in range(30))
        ]
        assert any(found)

    def test_memo_matches_ywide_on_random_hosts(self):
        # (C) settled by the bound: the memo alone reads the triples
        cfg = Config(C=2, k_threshold=3)
        found = 0
        for p, seed in itertools.product((0.45, 0.55, 0.65, 0.8), range(3)):
            host = gen_random_host(40, 40, 40, p, seed)
            try:
                choice = pick_link_vertex(host, cfg, 3, HostIndex(host))
            except NoQualifyingVertex:
                continue
            found += self.check_against(choice.link, choice.bad_pairs, cfg, 40, choice.q)
        assert found

    def test_search_on_fresh_memo_matches_whole_on_random_problems(self):
        # the _random_problem family, whose masks test_matches_brute_force
        # reads pair by pair: the search on a memo it fills itself finds
        # what it finds on the whole D(Y')
        for seed in range(30):
            whole = _random_problem(seed)[3]
            whole = problem_of(whole.ground_set, whole.bad_triples)
            for t in range(1, min(len(whole.ground_set), 5) + 1):
                fresh = _random_problem(seed)[3]
                try:
                    got = find_complete_subgraph(fresh, t)
                except CliqueNotFound:
                    with pytest.raises(CliqueNotFound):
                        find_complete_subgraph(whole, t)
                else:
                    assert got == find_complete_subgraph(whole, t), (seed, t)


class TestProblemGraph:
    def test_no_bad_gives_empty(self):
        # every triple of a complete 3 x 3 link has n q**3 = 3 common
        # neighbours
        pg = build_problem_graph(complete_link(3, 3), (0, 0, 0), [2, 0, 1], 3, Fraction(1))
        assert pg.bad_triples == frozenset()
        assert pg.ground_set == (0, 1, 2)

    def test_bad_pair_spreads_to_triples(self):
        s = 6
        yprime = list(range(s))
        bad_pairs = pair_masks([(0, 1)], s)
        pg = build_problem_graph(complete_link(s, s), bad_pairs, yprime, s, Fraction(1))
        assert len(pg.bad_triples) == s - 2
        assert all(0 in tr and 1 in tr for tr in pg.bad_triples)

    def test_matches_brute_force(self):
        # D(Y') against its set-based definition, on random links and bad
        # pairs and a random core set Y' inside their Y
        for seed in range(30):
            yprime, bad_pairs, bad_triples, pg = _random_problem(seed)
            assert pg.ground_set == tuple(sorted(yprime))
            expect = {
                tr
                for tr in itertools.combinations(sorted(yprime), 3)
                if tr in bad_triples
                or any(pr in bad_pairs for pr in itertools.combinations(tr, 2))
            }
            assert pg.bad_triples == expect, seed

    def test_built_from_a_mask_dict(self):
        # the dataclass constructor takes the masks as given: one per pair.
        # In the link, only x = 0 holds all of (0, 1, 2), below n q**3 = 2
        pg = ProblemGraph((0, 1, 2), {(0, 1): 0b100, (0, 2): 0, (1, 2): 0})
        assert pg.bad_triples == {(0, 1, 2)}
        link = link_of(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
        assert pg == build_problem_graph(link, (0, 0, 0), [0, 1, 2], 2, Fraction(1))
        # a problem graph is not its own (ground_set, masks) fields
        assert pg != (pg.ground_set, pg.masks)
        assert pg.__eq__(object()) is NotImplemented
        assert find_complete_subgraph(pg, 2) == [0, 1]
        with pytest.raises(CliqueNotFound, match=r"\|D\|=1\)"):
            find_complete_subgraph(pg, 3)

    def test_clique_search_matches_oracle(self):
        # find_complete_subgraph on the masks build_problem_graph makes,
        # against clique_oracle on the same graph, on the family above
        found_some = refused_some = False
        for seed in range(30):
            pg = _random_problem(seed)[3]
            for t in range(1, 6):
                expect = clique_oracle(pg, t)
                try:
                    found = find_complete_subgraph(pg, t)
                except CliqueNotFound as exc:
                    assert not expect, (seed, t)
                    if t <= len(pg.ground_set):
                        # |D| as the tuple set counts it
                        assert f"|D|={len(pg.bad_triples)})" in str(exc), (seed, t)
                    refused_some = True
                else:
                    assert expect, (seed, t)
                    # the lexicographically first t-set that avoids D(Y')
                    assert found == next(
                        list(c)
                        for c in itertools.combinations(pg.ground_set, t)
                        if not any(tr in pg.bad_triples for tr in itertools.combinations(c, 3))
                    ), (seed, t)
                    found_some = True
        assert found_some and refused_some

    def test_memo_masks_are_the_classified_masks(self):
        # one triple rule: with no bad pair, the memo's mask of every pair of
        # a Gamma(x) is the mask classify_pairs_triples counts for (C)
        # (link, n, q, the x whose Gamma(x) is read)
        links = [
            (hub_link(random.Random(seed))[0], HUB_N, Fraction(10, 27), range(HUB_ROWS))
            for seed in range(10)
        ]
        for p, seed in itertools.product((0.45, 0.65), range(3)):
            link = HostIndex(gen_random_host(40, 40, 40, p, seed)).link(0)
            links.append((link, 40, Fraction(1, 2), range(0, 40, 8)))
        bad = good = 0
        for link, n, q, xs in links:
            none = (0,) * link.n_y
            for x in xs:
                ys = bits(link.gamma(x))
                _, triples = classify_pairs_triples(link, none, ys, n, q)
                pg = build_problem_graph(link, none, ys, n, q)
                for pr in itertools.combinations(ys, 2):
                    assert pg.masks[pr] == triples.get(pr, 0), (pr, n)
                    bad += pr in triples
                    good += pr not in triples
        assert bad and good


def _random_problem(seed):
    """A random link over Y = range(n_y), n_y <= 12, random bad pairs of Y,
    a shuffled core set Y' inside it, and D(Y') as ``build_problem_graph``
    reads it off the link at n, q with n q**3 in (1, 3].  Also returns the
    bad triples of Y: those with fewer than ceil(n q**3) common neighbours,
    counted over the link's rows as sets."""
    rng = random.Random(seed)
    n_x, n_y = rng.randint(2, 8), rng.randint(3, 12)
    density = rng.choice((0.5, 0.7, 0.9))
    link = link_of(n_x, n_y, [
        (x, y) for x in range(n_x) for y in range(n_y) if rng.random() < density
    ])
    n, q = rng.randint(9, 24), Fraction(1, 2)
    yprime = sorted(rng.sample(range(n_y), rng.randint(0, n_y)))
    rng.shuffle(yprime)
    bad_pairs = {
        pr for pr in itertools.combinations(range(n_y), 2) if rng.random() < 0.3
    }
    rows = [{y for y in range(n_y) if link.gamma(x) >> y & 1} for x in range(n_x)]
    bad_triples = {
        tr for tr in itertools.combinations(range(n_y), 3)
        if sum(1 for r in rows if r.issuperset(tr)) < math.ceil(n * q ** 3)
    }
    pg = build_problem_graph(link, pair_masks(bad_pairs, n_y), yprime, n, q)
    return yprime, bad_pairs, bad_triples, pg


class TestFindCompleteSubgraph:
    def test_empty_problem_takes_prefix(self):
        pg = problem_of(tuple(range(10)), frozenset())
        assert find_complete_subgraph(pg, 4) == [0, 1, 2, 3]

    def test_complete_problem_has_no_triangle(self):
        verts = tuple(range(6))
        pg = problem_of(verts, frozenset(itertools.combinations(verts, 3)))
        with pytest.raises(CliqueNotFound):
            find_complete_subgraph(pg, 3)

    def test_too_small_ground_set(self):
        with pytest.raises(CliqueNotFound):
            find_complete_subgraph(problem_of((0, 1), frozenset()), 3)

    def test_output_is_independent(self):
        rng = random.Random(23)
        verts = tuple(range(30))
        bad = frozenset(
            tr for tr in itertools.combinations(verts, 3) if rng.random() < 0.05
        )
        pg = problem_of(verts, bad)
        found = find_complete_subgraph(pg, 4)
        assert len(found) == 4
        for tr in itertools.combinations(found, 3):
            assert tr not in bad


class TestEmbedV2:
    def test_single_vertex_no_collision(self):
        target = ThreeGraph(3, frozenset())
        aux = build_aux_graph(target)
        # no V2 at all: trivially succeeds
        link = only_link(complete_link(4, 4), target)
        out = embed_v2(aux, {0: 0, 1: 1, 2: 2}, link, Config(), random.Random(0), K=0)
        assert out.v2_map == out.center_map == {}

    def test_injective_on_complete_link(self):
        aux = build_aux_graph(TRIANGLE)
        link = only_link(complete_link(20, 3), TRIANGLE)
        v1_map = {0: 0, 1: 1, 2: 2}
        out = embed_v2(aux, v1_map, link, Config(rng_seed=1), random.Random(1), K=0)
        assert sorted(out.v2_map) == sorted(aux.v2)
        assert len(set(out.v2_map.values())) == len(out.v2_map)

    def test_empty_candidate_set(self):
        aux = build_aux_graph(TRIANGLE)
        link = only_link(link_of(2, 3, {(0, 0), (0, 1)}), TRIANGLE)
        with pytest.raises(RetriesExhausted, match="no injective placement"):
            embed_v2(aux, {0: 0, 1: 1, 2: 2}, link, Config(), random.Random(0), K=0)

    def test_collision_rate_below_half_at_scale(self):
        # K4 has |V2| = 10 on a 100-wide link.  x is joined to every y except
        # x % 5, so each V2 vertex's candidates are a proper subset of X.
        # Every seed must give a collision-free placement inside the common
        # neighbourhoods, and the seeds must not all give the same one.
        aux = build_aux_graph(K4)
        link = only_link(
            link_of(100, 4, [(x, y) for x in range(100) for y in range(4) if x % 5 != y]), K4
        )
        v1_map = {i: i for i in range(4)}
        placements = set()
        for seed in range(400):
            out = embed_v2(aux, v1_map, link, Config(), random.Random(seed), K=0)
            assert sorted(out.v2_map) == sorted(aux.v2)
            assert len(set(out.v2_map.values())) == len(out.v2_map)
            for u, x in out.v2_map.items():
                assert all(link.gamma(x) >> v1_map[a] & 1 for a in aux.neighbors_of_v2(u))
            placements.add(tuple(sorted(out.v2_map.items())))
        assert len(placements) > 1

    def test_retries_exhausted_when_injectivity_impossible(self):
        # |V2| = 4 but only 2 X-vertices available
        aux = build_aux_graph(TRIANGLE)
        link = only_link(complete_link(2, 3), TRIANGLE)
        with pytest.raises(RetriesExhausted, match="no injective placement"):
            embed_v2(aux, {0: 0, 1: 1, 2: 2}, link, Config(retry_limit=8), random.Random(0), K=0)

    def test_permutation_on_exactly_wide_link(self):
        # torus7 has |V2| = 21 + 14 = 35; on a 35-wide complete link every
        # injective placement is a permutation, which a uniform sampler hits
        # with probability 35!/35**35, about 1e-14
        torus7 = load_target("builtin:torus7")
        aux = build_aux_graph(torus7)
        v1_map = {v: v for v in aux.v1}
        link = only_link(complete_link(35, 7), torus7)
        out = embed_v2(aux, v1_map, link, Config(), random.Random(0), K=0)
        assert sorted(out.v2_map) == sorted(aux.v2)
        assert sorted(out.v2_map.values()) == list(range(35))
        # the same with admissibility enforced: 43 centers per cycle > K = 42
        host = TripartiteHost(
            (35, 7, 43),
            frozenset(itertools.product(range(35), range(7), range(43))),
        )
        index = HostIndex(host)
        out = embed_v2(aux, v1_map, index.link(0), Config(), random.Random(0), K=42)
        assert sorted(out.v2_map.values()) == list(range(35))
        assert sorted(out.center_map.values()) == list(range(1, 43))

    @staticmethod
    def _clashing_link():
        # Triangle on Y = {0, 1, 2} in the complete link of z = 6 on 5
        # X-vertices, K = 1.  z = 6 bounds a disk on every cycle, so a cycle
        # is admissible when one more center bounds one (a disk on
        # x, x', ya, yb): pairs 01 and 12 admit {0, 2} and {1, 3}, pair 02
        # admits {0, 4} and {1, 4}.  So u02 sits on 4, w on 0 or 1, and then
        # u01 and u12 both need 2 (w on 0) or both need 3 (w on 1).  Every
        # arc has support and the pruned candidates admit a matching, so
        # only the search can show that no placement exists.
        disks = [
            ((0, 1), (0, 2)), ((0, 1), (1, 3)),
            ((1, 2), (0, 2)), ((1, 2), (1, 3)),
            ((0, 2), (0, 4)), ((0, 2), (1, 4)),
            ((0, 1, 2), range(5)),
        ]
        faces = frozenset(
            (x, y, z) for z, (ys, xs) in enumerate(disks) for x in xs for y in ys
        )
        return HostIndex(TripartiteHost((5, 3, len(disks)), faces)).link(6)

    def test_no_admissible_placement_is_proved(self):
        aux = build_aux_graph(TRIANGLE)
        link = self._clashing_link()
        with pytest.raises(RetriesExhausted, match="no admissible placement: exhaustive"):
            embed_v2(aux, {0: 0, 1: 1, 2: 2}, link, Config(), random.Random(0), K=1)

    def test_no_distinct_centers_is_proved(self):
        # In a complete host with n_Z = 3 every placement is admissible at
        # K = 0, but the triangle's three special cycles share the two
        # centers other than z = 0; one more Z-vertex is enough.
        aux = build_aux_graph(TRIANGLE)
        for n_z, found in ((3, False), (4, True)):
            host = TripartiteHost(
                (4, 3, n_z), frozenset(itertools.product(range(4), range(3), range(n_z)))
            )
            index = HostIndex(host)
            try:
                out = embed_v2(
                    aux, {0: 0, 1: 1, 2: 2}, index.link(0), Config(), random.Random(0), K=0
                )
            except RetriesExhausted as exc:
                assert not found
                assert "no admissible placement: exhaustive" in str(exc)
            else:
                assert found and sorted(out.v2_map.values()) == [0, 1, 2, 3]

    def test_budget_reason_when_search_is_cut(self):
        aux = build_aux_graph(TRIANGLE)
        link = self._clashing_link()
        with pytest.raises(RetriesExhausted, match="budget of 1 nodes"):
            embed_v2(aux, {0: 0, 1: 1, 2: 2}, link, Config(retry_limit=1), random.Random(0), K=1)

    def test_search_matches_brute_force(self):
        # exact in both directions on these hosts: a placement is returned
        # exactly when some injective placement makes every special cycle
        # admissible and leaves the cycles distinct centers other than the
        # link vertex z = 0 (the 3 e(H) = 6 cycles need n_Z >= 7).  A leaf
        # tries one matching of its pair-vertices, so on other hosts the
        # search can miss a placement whose centers only another matching
        # of the same leaf makes distinct.
        target = ThreeGraph(4, frozenset({(0, 1, 2), (0, 1, 3)}))
        aux = build_aux_graph(target)
        v1_map = {i: i for i in range(4)}
        n_x = 7
        outcomes = []
        for seed in range(40):
            rng = random.Random(seed)
            host = random_host(rng, n_x, 4, 7, rng.uniform(0.85, 1.0))
            index = HostIndex(host)
            link = index.link(0)
            K = rng.randint(2, 4)

            def distinct_centers(centers, used):
                if not centers:
                    return True
                return any(
                    distinct_centers(centers[1:], used | {z})
                    for z in centers[0] if z != 0 and z not in used
                )

            def admissible(img):
                masks = [
                    disk_mask(host, img[sc.u], img[sc.w], sc.a, sc.b)
                    for sc in aux.special_cycles
                ]
                return all(m.bit_count() > K for m in masks) and distinct_centers(
                    [[z for z in range(host.n_z) if (m >> z) & 1] for m in masks], set()
                )

            cands = [
                [x for x in range(n_x) if all(link.gamma(x) >> y & 1 for y in aux.neighbors_of_v2(u))]
                for u in aux.v2
            ]

            def exists(i, img):
                if i == len(aux.v2):
                    return admissible(img)
                u = aux.v2[i]
                for x in cands[i]:
                    if x not in img.values():
                        img[u] = x
                        if exists(i + 1, img):
                            return True
                        del img[u]
                return False

            want = exists(0, {})
            try:
                out = embed_v2(aux, v1_map, link, Config(), random.Random(seed), K=K)
            except RetriesExhausted as exc:
                assert "budget" not in str(exc)
                assert not want, seed
                outcomes.append(False)
                continue
            assert want, seed
            assert len(set(out.v2_map.values())) == len(out.v2_map) and admissible(out.v2_map)
            # the centers the search found: one per cycle, distinct, not z = 0
            centers = out.center_map
            assert out.v1_map == v1_map and sorted(centers) == list(range(len(aux.special_cycles)))
            assert 0 not in centers.values() and len(set(centers.values())) == len(centers)
            for ci, sc in enumerate(aux.special_cycles):
                assert disk_mask(host, out.v2_map[sc.u], out.v2_map[sc.w], sc.a, sc.b) >> centers[ci] & 1
            outcomes.append(True)
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.xfail(
        strict=True,
        reason="Gap 1 of ROADMAP Direction 1: a leaf tries one matching of its "
        "pair-vertices; closing the gap removes this marker",
    )
    def test_search_seed_does_not_decide_existence(self):
        # A placement with distinct centers exists here, but under 12 of
        # these 20 search seeds the one matching each leaf tries has none,
        # and the search wrongly proves that no placement exists.
        target = ThreeGraph(4, frozenset({(0, 1, 2), (0, 1, 3)}))
        aux = build_aux_graph(target)
        rng = random.Random(133)
        host = random_host(rng, 7, 4, 7, rng.uniform(0.5, 1.0))
        K = rng.randint(2, 4)
        index = HostIndex(host)
        v1_map = {v: v for v in aux.v1}
        found = []
        for seed in range(20):
            try:
                out = embed_v2(aux, v1_map, index.link(0), Config(), random.Random(seed), K=K)
            except RetriesExhausted:
                continue
            cert = HomeomorphCertificate(target=target, embedding=out)
            found.append(verify_certificate(cert, host).passed)
        assert found == [True] * 20

    def test_search_goes_on_past_a_leaf_without_centers(self, monkeypatch):
        # On the host above, under these search seeds, the first leaf's one
        # matching leaves no distinct centers, and the search must go on to
        # the next leaf, which has them.
        target = ThreeGraph(4, frozenset({(0, 1, 2), (0, 1, 3)}))
        aux = build_aux_graph(target)
        rng = random.Random(133)
        host = random_host(rng, 7, 4, 7, rng.uniform(0.5, 1.0))
        K = rng.randint(2, 4)
        assert K == 2
        index = HostIndex(host)
        v1_map = {v: v for v in aux.v1}
        answers = []

        def recorded(center_sets):
            answers.append(assign_centers(center_sets))
            return answers[-1]

        monkeypatch.setattr(embed, "assign_centers", recorded)
        for seed in (5, 7, 10, 16):
            answers.clear()
            out = embed_v2(aux, v1_map, index.link(0), Config(), random.Random(seed), K=K)
            assert answers == [None, out.center_map], seed
            cert = HomeomorphCertificate(target=target, embedding=out)
            assert verify_certificate(cert, host).passed, seed
            if seed == 5:
                assert sorted(out.v2_map.items()) == [
                    (4, 1), (5, 0), (6, 3), (7, 4), (8, 2), (9, 5), (10, 6),
                ]
                assert sorted(out.center_map.items()) == [
                    (0, 6), (1, 2), (2, 4), (3, 5), (4, 3), (5, 1),
                ]

    def test_search_outcomes_pinned(self):
        # What the search decides on a seeded family of small hosts: the
        # placement and centers it returns, or its failure message.  The
        # family reaches every failure reason (Hall, pruning, the second
        # Hall check, exhaustive search and, with retry_limit 1 or 2, the
        # budget) and every kind of arc pair: a face-vertex column of at
        # most K centers, and pairs of columns that share more than K
        # centers or not.
        targets = (TRIANGLE, ThreeGraph(4, frozenset({(0, 1, 2), (0, 1, 3)})))
        rng = random.Random(2024)
        record = []
        for case in range(200):
            target = targets[case % 2]
            host = random_host(rng, rng.randint(5, 9), 4, rng.randint(4, 8), rng.uniform(0.6, 1.0))
            K = rng.randint(0, 4)
            cfg = Config(retry_limit=rng.choice((1, 2, 100)))
            aux = build_aux_graph(target)
            index = HostIndex(host)
            try:
                out = embed_v2(
                    aux, {v: v for v in aux.v1}, index.link(0), cfg, random.Random(case), K=K,
                )
            except RetriesExhausted as exc:
                record.append(str(exc))
            else:
                record.append((sorted(out.v2_map.items()), sorted(out.center_map.items())))
        digest = hashlib.sha256(repr(record).encode()).hexdigest()
        assert digest == "b0b7e6d1606268a4c16a4db8f4e15da6772050f35d02b8c11312d739433e9cf4"


def settled_pair_vertices(host, aux, v1_map, dom, K):
    """The pair-vertices u whose least candidate column size s0 has
    s0 > K and 2 s0 > K + n_Z, so that every arc through u is admissible
    for any two distinct images; columns read off ``disk_mask``."""
    ya_yb = {sc.u: (v1_map[sc.a], v1_map[sc.b]) for sc in aux.special_cycles}
    settled = set()
    for u, (ya, yb) in ya_yb.items():
        s0 = min(disk_mask(host, x, x, ya, yb).bit_count() for x in bits(dom[u]))
        if s0 > K and 2 * s0 > K + host.n_z:
            settled.add(u)
    return settled, set(ya_yb)


class TestArcConsistency:
    """Arc consistency revises arcs whose pair-vertex sizes settle by the
    domains' sizes, and reads rows for the others: its domains are the
    brute-force fixed point either way, and a settled pair-vertex builds
    rows only for the images the search places."""

    def test_pruned_domains_match_brute_force(self, monkeypatch):
        # embed_v2 hands the domains to _match twice before its search:
        # for Hall's check as built, and again once pruning is done
        calls = []
        real_match = embed._match

        def recording(verts, order, allowed, owner=None):
            calls.append(dict(allowed) if isinstance(allowed, dict) else None)
            return real_match(verts, order, allowed, owner)

        monkeypatch.setattr(embed, "_match", recording)
        targets = (TRIANGLE, ThreeGraph(4, frozenset({(0, 1, 2), (0, 1, 3)})))
        rng = random.Random(60)
        kinds = {"every": 0, "none": 0, "some": 0}
        refused = 0
        for case in range(240):
            target = targets[case % 2]
            n_z = rng.randint(5, 10)
            host = random_host(rng, rng.randint(6, 10), 4, n_z, rng.uniform(0.5, 1.0))
            K = rng.randint(0, 4)
            aux = build_aux_graph(target)
            v1_map = {v: v for v in aux.v1}
            calls.clear()
            try:
                embed_v2(aux, v1_map, HostIndex(host).link(0), Config(), random.Random(case), K=K)
            except RetriesExhausted as exc:
                if "(Hall)" in str(exc):
                    continue  # refused before any pruning
                if "pruning leaves" in str(exc):
                    want = arc_consistency_oracle(host, aux, v1_map, calls[0], K)
                    assert 0 in want.values(), case
                    refused += 1
                    continue
            settled, pair_vertices = settled_pair_vertices(host, aux, v1_map, calls[0], K)
            kind = "every" if settled == pair_vertices else "some" if settled else "none"
            kinds[kind] += 1
            want = arc_consistency_oracle(host, aux, v1_map, calls[0], K)
            assert 0 not in want.values() and calls[1] == want, case
        assert min(kinds.values()) >= 10 and refused >= 5, (kinds, refused)

    def test_settled_pair_vertex_builds_rows_only_where_placed(self, monkeypatch):
        # a dense n = 60 host at K = 12, as on the dense benchmark: every
        # pair-vertex of k4 is settled by sizes, so arc consistency reads no
        # row and each of its rows is an image the search placed on one of
        # its face-vertices, two of the about 50 candidates each has
        made, seen = [], []

        class Recording(embed._Rows):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        real_embed = embed.embed_v2

        def kept(aux, v1_map, link, cfg, rng, *, K):
            seen.append((aux, link, K))
            return real_embed(aux, v1_map, link, cfg, rng, K=K)

        monkeypatch.setattr(embed, "_Rows", Recording)
        monkeypatch.setattr(embed, "embed_v2", kept)
        host = gen_random_host(60, 60, 60, Fraction(9, 10), 11)
        cert = find_homeomorph(host, K4, Config(C=2, k_threshold=12, rng_seed=1))
        (aux, link, K), emb = seen[0], cert.embedding
        # the rows are made in the order the pair-vertices first appear
        pair_vertices = list(dict.fromkeys(sc.u for sc in aux.special_cycles))
        dom = {}
        for u in pair_vertices:
            a, b = aux.neighbors_of_v2(u)
            dom[u] = link.y_masks[emb.v1_map[a]] & link.y_masks[emb.v1_map[b]]
        settled, _ = settled_pair_vertices(host, aux, emb.v1_map, dom, K)
        assert settled == set(pair_vertices) and len(made) == len(pair_vertices)
        for u, rows in zip(pair_vertices, made):
            faces = {sc.w for sc in aux.special_cycles if sc.u == u}
            assert rows.settled and set(rows) == {emb.v2_map[w] for w in faces}, u
            assert len(rows) == 2 and dom[u].bit_count() > 40, u


def center_sets(*sets):
    """The bitmask over Z of each set of centers."""
    return [sum(1 << z for z in zs) for zs in sets]


class TestAssignCenters:
    def test_single_cycle_smallest_center(self):
        # every cycle may take 1..4: each takes the smallest center still free
        assert assign_centers(center_sets(*[{1, 2, 3, 4}] * 3)) == {0: 1, 1: 2, 2: 3}

    def test_augments_where_greedy_runs_out(self):
        # cycle 0 may take 1 or 2 and cycle 1 only 1: first-free order gives
        # cycle 0 the center 1, and an augmenting path moves it to 2
        assert assign_centers(center_sets({1, 2}, {1}, {3})) == {0: 2, 1: 1, 2: 3}

    def test_none_when_hall_fails(self):
        # cycles 0 and 1 both have only the center 1
        assert assign_centers(center_sets({1}, {1}, {2, 3})) is None

    def test_k4_centers_recheck(self):
        host = complete_host(20)
        cert = find_homeomorph(host, K4, Config(C=1, k_threshold=12, rng_seed=7))
        centers = cert.embedding.center_map
        assert len(centers) == 12
        assert len(set(centers.values())) == 12
        # recheck all four faces of every disk against the raw host
        faces = set(host_faces(host))
        for f in cert.host_faces:
            assert f in faces


class TestPairVerdictsEndToEnd:
    """Finds that change when the z-scan's pair verdicts are wrong.  The
    digests pinned elsewhere do not see a bad pair that is not counted, or
    one marked on one side only."""

    def test_count_decided_pair_moves_the_core(self):
        # In the chosen link (z = 7, settled by T_z) the pair {1, 2} has 11
        # common neighbours, so its verdict turns on its count: 41 forbidden
        # cycles make it bad.  Counted 0, it would turn good, and the
        # lexicographic clique would take (0, 1, 2).
        host = gen_random_host(20, 20, 20, Fraction(51, 100), 225025)
        cert = find_homeomorph(host, TRIANGLE, Config(C=2, k_threshold=2))
        assert sorted(cert.embedding.v1_map.values()) == [0, 1, 11]

    def test_bad_pair_counts_on_both_sides(self):
        # z = 0 has the complete link on 6 x 28 and meets z-scan condition
        # (1) exactly at C = 12, delta = 1, so n q = 1 and a pair is good
        # only with no forbidden cycle.  Only the three pairs inside
        # {0, 1, 2}, whose faces take every z, are good, so every
        # Gamma(x) = Y carries P_x = 375 bad pairs, above the (B) bound
        # 12 (1 + C) n q / C |Gamma(x)| = 364.  Half that count would pass
        # (B) and find the triangle on {0, 1, 2}.
        faces = [(x, y, 0) for x in range(6) for y in range(28)]
        faces += [(x, y, z) for x in range(6) for y in range(3) for z in range(1, 5)]
        host = TripartiteHost((6, 28, 5), faces)
        with pytest.raises(NoQualifyingX):
            find_homeomorph(host, TRIANGLE, Config(C=12, delta=1, k_threshold=1))
        # a looser C moves the (B) bound above P_x, and the triangle is found
        cert = find_homeomorph(host, TRIANGLE, Config(C=11, delta=1, k_threshold=1))
        assert sorted(cert.embedding.v1_map.values()) == [0, 1, 2]


class TestFindHomeomorph:
    def test_complete_host_k4(self, complete30):
        cert = find_homeomorph(complete30, K4, Config(C=1, k_threshold=12, rng_seed=5))
        assert len(cert.host_faces) == 48
        assert verify_certificate(cert, complete30).passed

    def test_empty_host_fails_at_pick(self):
        empty = TripartiteHost((5, 5, 5), frozenset())
        with pytest.raises(NoQualifyingVertex):
            find_homeomorph(empty, TRIANGLE, Config(C=1, k_threshold=3))

    def test_random_host_triangle(self):
        # the density regime the pipeline targets, at desk scale: p = n^(-1/5)
        n = 40
        successes = 0
        for seed in range(5):
            rng = random.Random(seed)
            host = random_host(rng, n, n, n, n ** -0.2)
            try:
                cert = find_homeomorph(host, TRIANGLE, Config(C=2, k_threshold=3, rng_seed=seed))
            except Exception:
                continue
            assert verify_certificate(cert, host).passed
            successes += 1
        assert successes >= 1

    def test_k4_near_threshold(self):
        # at p = 0.7 most injective placements of K4's ten added vertices
        # make some special cycle forbidden, so the placement is searched for
        for seed in range(3):
            host = random_host(random.Random(seed), 40, 40, 40, 0.7)
            cert = find_homeomorph(host, K4, Config(C=2, k_threshold=12, rng_seed=seed))
            assert verify_certificate(cert, host).passed

    def test_determinism(self, complete30):
        cfg = Config(C=1, k_threshold=12, rng_seed=42)
        c1 = find_homeomorph(complete30, K4, cfg)
        c2 = find_homeomorph(complete30, K4, cfg)
        assert c1.host_faces == c2.host_faces
        assert c1.embedding == c2.embedding

    @pytest.mark.parametrize(
        "sizes, target, K, reason",
        [
            ((10, 2, 10), TRIANGLE, 3, "v(H) = 3 exceeds n_y = 2"),
            ((3, 10, 10), TRIANGLE, 3, "|V2| = 4 added vertices exceed n_x = 3"),
            ((10, 10, 12), K4, 12, "K = 12 is not below n_z = 12"),
            ((10, 10, 12), K4, 3, "3 e(H) = 12 special cycles need distinct centers "
                                  "besides the link vertex, but n_z = 12"),
        ],
    )
    def test_capacity_rejected_before_search(self, sizes, target, K, reason):
        # empty hosts: without the check the z-scan would fail first
        host = TripartiteHost(sizes, frozenset())
        with pytest.raises(CapacityExceeded) as info:
            find_homeomorph(host, target, Config(C=1, k_threshold=K))
        assert info.value.stage == "capacity"
        assert reason in str(info.value)

    @pytest.mark.parametrize("host_args, target, digest", [
        ((30, 30, 30, 0.8, 1), TRIANGLE,
         "f485af895a58fc641fd94f445b00ec1dd994dac602951450a1d2230f6e7b7846"),
        ((30, 30, 30, 0.8, 1), K4,
         "d49b742ccf03c5c226913eb36633e31323b7d57b611139b392f1a9edff89051d"),
        ((40, 40, 40, 0.7, 2), TRIANGLE,
         "ff977e6ae4678ca07d73b1c6118d8636c6e1fdbfe311ae9fa0e7b01dae7ffe6f"),
        ((40, 40, 40, 0.7, 2), K4,
         "43e85d40906dfce9e6c746426c058329f06cfa78b2023e4c0179fbdc6b079b70"),
    ])
    def test_certificate_pinned(self, host_args, target, digest):
        # A change that only makes the search faster must leave every
        # certificate byte-identical.  C = 2, as desk_scale's C = 1 realizes
        # eps = 0 on these hosts and finds nothing below p = 0.95; both hosts
        # have a non-empty D(Y') (1424 and 1309 triples).
        host = gen_random_host(*host_args)
        cert = find_homeomorph(host, target, Config.desk_scale(target, C=2))
        text = write_certificate(cert)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert verify_certificate(parse_certificate(text), host).passed

    def test_k_below_three_e_finds(self, complete30):
        # K < 3 e(H) = 12 is valid: the search itself secures distinct centers
        cert = find_homeomorph(complete30, K4, Config(C=1, k_threshold=11))
        assert verify_certificate(cert, complete30).passed

    @pytest.mark.parametrize("name, n, p", [
        ("k4", 40, 0.5), ("k4", 40, 0.6), ("torus7", 43, 0.7), ("torus7", 43, 0.9),
    ])
    def test_small_k_finds_where_three_e_cannot(self, name, n, p):
        # With distinct centers secured inside the V2 search, K = 3 finds and
        # verifies on every one of these hosts, while K = 3 e(H) (12 for k4,
        # 42 for torus7) leaves no admissible placement on any of them.
        target = load_target(f"builtin:{name}")
        for s in range(6):
            host = gen_random_host(n, n, n, p, 1000 + s)
            cert = find_homeomorph(host, target, Config(C=2, k_threshold=3, rng_seed=s))
            assert verify_certificate(cert, host).passed
            with pytest.raises(RetriesExhausted) as info:
                find_homeomorph(host, target, Config(C=2, k_threshold=3 * target.e, rng_seed=s))
            assert info.value.stage == "embed_v2"

    def test_monotone_under_host_growth(self):
        rng = random.Random(3)
        n = 20
        host = random_host(rng, n, n, n, 0.8)
        cert = find_homeomorph(host, TRIANGLE, Config(C=2, k_threshold=3, rng_seed=3))
        assert verify_certificate(cert, host).passed
        grown = type(host)(
            host.class_sizes, [*host_faces(host), (0, 0, 0), (5, 5, 5)]
        )
        assert verify_certificate(cert, grown).passed

    def test_embedding_invariants_checked_independently(self, complete30):
        cert = find_homeomorph(complete30, TRIANGLE, Config(C=1, k_threshold=3, rng_seed=0))
        assert_valid_embedding(cert, complete30)
        # a copy whose v2_map collapses every vertex onto X-vertex 0 must be
        # refused by the verifier's injectivity check
        bad = HomeomorphCertificate(
            target=cert.target,
            embedding=Embedding(
                v1_map=dict(cert.embedding.v1_map),
                v2_map={u: 0 for u in cert.embedding.v2_map},
                center_map=dict(cert.embedding.center_map),
            ),
        )
        with pytest.raises(RuntimeError, match="check 2"):
            assert_valid_embedding(bad, complete30)

    def test_find_refuses_a_certificate_the_verifier_refuses(self, complete30, monkeypatch):
        # A search fault that moves cycle 0's center to z = n_z, outside Z,
        # keeps every map keyed and injective and the centers distinct, so
        # only check 4, which looks the mapped faces up in the host, sees it.
        search = embed.embed_v2

        def faulty(*args, **kwargs):
            emb = search(*args, **kwargs)
            return replace(emb, center_map={**emb.center_map, 0: complete30.n_z})

        monkeypatch.setattr(embed, "embed_v2", faulty)
        with pytest.raises(RuntimeError, match="check 4"):
            find_homeomorph(complete30, TRIANGLE, Config(C=1, k_threshold=3, rng_seed=0))
