"""Dependent-random-choice core set selection, embedding and disk gluing.

The pipeline: pick a dense link L_z with few forbidden 4-cycles, which
also settles every pair of Y as good or bad (``links.pick_link_vertex``
hands the verdicts on as per-y bad-pair masks), pass (via an exhaustive
scan over X) to a core set Y' = Gamma(x) in which bad pairs and triples
are rare, place the original target vertices on a completely-good subset
of Y', place the added vertices injectively into their common
neighbourhoods in X by an exact search that keeps every special cycle
admissible and leaves each its own center, and finally glue one 4-disk
with that center onto the image of every special cycle.  That
search is one function, ``embed_v2``.  Its admissibility arcs are read
off per-X-vertex column center sets: settled by the two sets' sizes
where ``links.open_partners`` can, and ANDed only where the sizes leave
them open.  It returns the embedding of the first leaf, in search order,
whose one matching of the pair-vertices leaves distinct centers in the
AND of the same columns (``assign_centers``).  The certificate, the
target with that embedding, goes to ``verify.verify_certificate`` before
``find_homeomorph`` returns it; a refusal is a RuntimeError.

Both expectation arguments (the choice of z and the choice of x) are
derandomized by first-qualifying scans, and the V2 placement is an exact
search; randomness remains only in the order in which that search tries
candidates, and is fully seeded.

Nothing is classified that no decision reads.  The scan settles (C) by
the bound T_x <= C(s, 3) where it can, and counts the bad triples of a
Gamma(x) only where that bound leaves (C) open.  D(Y') is worked out from
the link by the same one triple rule, into a memo of masks, one per pair
of Y', each filled the first time ``find_complete_subgraph`` reads it.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (
    AuxGraph,
    Config,
    Embedding,
    HomeomorphCertificate,
    Pair,
    ThreeGraph,
    TripartiteHost,
    bits,
)
from .errors import CapacityExceeded, CliqueNotFound, NoQualifyingX, RetriesExhausted
from .links import HostIndex, LinkGraph, open_partners, pick_link_vertex
from .seeding import derive_seed
from .verify import verify_certificate


# One per pair of a tested Gamma(x), as classify_pairs_triples returns them:
# the search reads bad-pair masks, but a run's trace counts the pairs here.
@dataclass(frozen=True)
class PairStats:
    pair: Pair
    good: bool


@dataclass(frozen=True, eq=False)
class ProblemGraph:
    """D(Y'): the triples of the core set that the embedding must avoid.

    ``ground_set`` is Y', ascending, and ``masks`` answers every pair
    a < b of it: ``masks[(a, b)]`` is the bitmask of the c > b in Y' with
    (a, b, c) in D(Y'), 0 when the pair closes none.  The pipeline's masks
    (``build_problem_graph``) are worked out pair by pair as the search
    reads them.  ``bad_triples`` is all of D(Y'), and two problem
    graphs are equal when their ground sets and ``bad_triples`` are,
    whichever pairs have been read.
    """

    ground_set: tuple[int, ...]
    masks: Mapping[Pair, int]

    @cached_property
    def bad_triples(self) -> frozenset[tuple[int, int, int]]:
        masks = self.masks
        return frozenset(
            (a, b, c)
            for a, b in itertools.combinations(self.ground_set, 2)
            for c in bits(masks[(a, b)])
        )

    def __eq__(self, other):
        if not isinstance(other, ProblemGraph):
            return NotImplemented
        return self.ground_set == other.ground_set and self.bad_triples == other.bad_triples


def _triple_min(n: int, q: Fraction) -> int:
    """ceil(n q**3): a triple is good when it has this many common link neighbours."""
    return math.ceil(n * q ** 3)


def _bad_thirds(ymasks: Sequence[int], triple_min: int, y1: int, y2: int, thirds: int) -> int:
    """The y3 in the bitmask ``thirds`` for which (y1, y2, y3) is bad: its
    common link neighbourhood has fewer than ``triple_min`` vertices, as
    it has for every y3 when Gamma(y1, y2) has.  The one triple rule, which
    the T_x count and D(Y') share.
    """
    m12 = ymasks[y1] & ymasks[y2]
    if m12.bit_count() < triple_min:
        return thirds
    return sum(1 << y3 for y3 in bits(thirds) if (m12 & ymasks[y3]).bit_count() < triple_min)


class _CoreMasks(dict):
    """D(Y') by pair, each mask worked out from the link on its first read
    (``__missing__``): ``self[(a, b)]``, for a < b in ``ground``, is the
    bitmask of the c > b in ``ground`` for which (a, b, c) holds a bad pair
    (``bad_pairs`` is ``LinkChoice.bad_pairs``) or is bad by ``_bad_thirds``.
    """

    def __init__(self, ground: tuple[int, ...], bad_pairs, ymasks, triple_min: int):
        super().__init__()
        self.bad_pairs, self.ymasks, self.triple_min = bad_pairs, ymasks, triple_min
        self.gmask = sum(1 << y for y in ground)

    def __missing__(self, pair: Pair) -> int:
        a, b = pair
        above = self.gmask >> (b + 1) << (b + 1)
        ma = self.bad_pairs[a]
        if (ma >> b) & 1:
            cs = above
        else:
            cs = above & (ma | self.bad_pairs[b])
            cs |= _bad_thirds(self.ymasks, self.triple_min, a, b, above & ~cs)
        self[pair] = cs
        return cs


def classify_pairs_triples(
    link: LinkGraph,
    bad_pairs: Sequence[int],
    ys: Sequence[int],
    n: int,
    q: Fraction,
) -> tuple[list[PairStats], dict[Pair, int]]:
    """The bad triples inside ``ys``, the ascending Gamma(x) that
    ``select_core_set`` counts, with the pair verdicts that the z-scan made.

    ``bad_pairs`` is ``LinkChoice.bad_pairs``: per y, the bitmask of the y'
    with {y, y'} a bad pair, as ``pick_link_vertex`` decided them.  A triple
    is good when its common neighbourhood has size at least n**(1-3*eps) =
    n q**3, the integer cutoff ``_triple_min``, worked out once per call.

    Returns ``(pair_stats, bad_triples)``: one ``PairStats`` per pair
    y1 < y2 of ``ys``, read off ``bad_pairs``, and ``bad_triples[(y1, y2)]``,
    the bitmask over the y3 > y2 in ``ys`` for which (y1, y2, y3) is bad, by
    ``_bad_thirds``; pairs with no bad triple are left out.
    """
    ymasks, triple_min = link.y_masks, _triple_min(n, q)
    gmask = sum(1 << y for y in ys)
    pair_stats = []
    bad_triples: dict[Pair, int] = {}
    for y1, y2 in itertools.combinations(ys, 2):
        pair_stats.append(PairStats((y1, y2), not bad_pairs[y1] >> y2 & 1))
        bad = _bad_thirds(ymasks, triple_min, y1, y2, gmask >> (y2 + 1) << (y2 + 1))
        if bad:
            bad_triples[(y1, y2)] = bad
    return pair_stats, bad_triples


def select_core_set(
    link: LinkGraph,
    bad_pairs: Sequence[int],
    cfg: Config,
    n: int,
    q: Fraction,
) -> tuple[int, list[int]]:
    """Y' = Gamma(x) for the first x passing the three scan inequalities.

    (A) |Gamma(x)| >= (C/4) n**(1-eps); (B) |Gamma(x)| bounds the surviving
    bad pairs P_x; (C) |Gamma(x)| bounds the surviving bad triples T_x.
    ``bad_pairs`` holds per y the mask of its bad partners (as carried by
    ``LinkChoice``), so P_x is half the sum over y in Gamma(x) of
    popcount(bad_pairs[y] & Gamma(x)).  For an x passing (A) and (B), the
    exact bound T_x <= C(s, 3), s = |Gamma(x)|, settles (C) where it can;
    only where it cannot are the triples of Gamma(x) classified, and T_x is
    the sum of the popcounts of the masks ``classify_pairs_triples``
    returns.  (A) is one integer cutoff; (B) and (C) compare P_x, C(s, 3)
    and T_x exactly with a ``Fraction`` rate per element of Gamma(x).  All
    three are worked out once per call.

    Returns (x, sorted Y').  The counted masks are dropped: D(Y') is worked
    out from the link by ``build_problem_graph``.
    """
    C = cfg.C
    nq = n * q  # n**(1-eps)
    s_min = math.ceil(C * nq / 4)  # (A); at least 1, as C, n and q are positive
    pairs_per_s = 12 * (1 + C) * nq / C  # (B): P_x <= pairs_per_s * |Gamma(x)|
    triples_per_s = 6 * nq * nq / C  # (C): T_x <= triples_per_s * |Gamma(x)|

    for x in range(link.n_x):
        gmask = link.gamma(x)
        s = gmask.bit_count()
        if s < s_min:
            continue
        ys = bits(gmask)
        p_x = sum((bad_pairs[y] & gmask).bit_count() for y in ys) // 2
        if p_x and p_x > pairs_per_s * s:
            continue
        if math.comb(s, 3) > triples_per_s * s:  # T_x <= C(s, 3) leaves (C) open
            _, bad_triples = classify_pairs_triples(link, bad_pairs, ys, n, q)
            t_x = sum(bad.bit_count() for bad in bad_triples.values())
            if t_x and t_x > triples_per_s * s:
                continue
        return x, ys
    raise NoQualifyingX(
        f"no x in X satisfies the core-set inequalities (C={cfg.C}, n={n})"
    )


def build_problem_graph(
    link: LinkGraph,
    bad_pairs: Sequence[int],
    yprime: Sequence[int],
    n: int,
    q: Fraction,
) -> ProblemGraph:
    """D(Y'): triples of Y' that are bad or contain a bad pair, read off
    the link with the arguments of ``classify_pairs_triples``.  Nothing is
    worked out here: each pair a < b of Y' gets its mask in a ``_CoreMasks``
    memo the first time ``find_complete_subgraph`` reads it.
    """
    ground = tuple(sorted(set(yprime)))
    return ProblemGraph(ground, _CoreMasks(ground, bad_pairs, link.y_masks, _triple_min(n, q)))


def find_complete_subgraph(p: ProblemGraph, t: int) -> list[int]:
    """A t-subset of Y' containing no triple of D(Y'), the lexicographically
    first, by backtracking over one candidate mask.

    The candidates of a partial set S are the vertices after its last that
    close no triple of D(Y') with a pair of S; adding v keeps those after
    v and drops, for each a in S, the c in ``masks[(a, v)]``, so only the
    pairs inside the sets tried are ever read.  A refusal counts all
    of D(Y').
    """
    verts = p.ground_set
    if t <= 0:
        return []
    if t > len(verts):
        raise CliqueNotFound(f"|Y'| = {len(verts)} < t = {t}")
    masks = p.masks
    chosen: list[int] = []

    def extend(cands: int) -> bool:
        need = t - len(chosen)
        if need == 0:
            return True
        for v in bits(cands):
            after = cands >> (v + 1) << (v + 1)
            if after.bit_count() < need - 1:
                return False  # fewer still after any later v
            for a in chosen:
                after &= ~masks[(a, v)]
            chosen.append(v)
            if extend(after):
                return True
            chosen.pop()
        return False

    if extend(sum(1 << v for v in verts)):
        return chosen
    d = sum(masks[pr].bit_count() for pr in itertools.combinations(verts, 2))
    raise CliqueNotFound(
        f"no complete {t}-set in the complement of D(Y') (|Y'|={len(verts)}, |D|={d})"
    )


def embed_v2(
    aux: AuxGraph,
    v1_map: dict[int, int],
    link: LinkGraph,
    cfg: Config,
    rng: random.Random,
    *,
    K: int,
) -> Embedding:
    """Injective placement of V2 into X by exact search, seeded by ``rng``.

    Each V2 vertex may go to the common link-neighbourhood of the images of
    its V1 neighbours; ``rng`` shuffles the order in which its candidates
    are tried.  The placement must be injective and make the image of every
    special cycle admissible: a constraint between the images of its
    pair-vertex u and face-vertex w, decided as
    ``link.host.disk_mask(...).bit_count() > K``.  That count is the size of
    the AND of the two images' column center sets, so each arc is first
    settled by the two column sizes (``links.open_partners``, with u's
    candidates ranked once by column size), and ANDed only where the sizes
    leave it open.  One bipartite matching (augmenting paths) first checks
    Hall's condition on the candidates.  Then candidates with no compatible
    partner are pruned (arc consistency) and Hall's condition is checked
    again.  Every constraint joins a face-vertex to a pair-vertex, so the
    search is depth first over the face-vertices (fewer than the
    pair-vertices on a surface), with forward checking of the pair-vertices.
    A leaf matches the pair-vertices into the unused X-vertices and ANDs
    each special cycle's image columns, less link.z, into its center set;
    the search returns the ``Embedding`` of the first leaf, in search order,
    whose one matching leaves distinct centers.

    Raises RetriesExhausted when no injective placement exists (Hall's
    condition fails, as it does when a V2 vertex has no candidate at all),
    when the exhaustive search finds no admissible one with distinct centers
    (trying one matching per leaf), or when the search spends its budget of
    ``cfg.retry_limit ** 2`` nodes.
    """
    ymasks = link.y_masks
    dom: dict[int, int] = {}  # V2 vertex -> bitmask of its candidates in X
    order: dict[int, list[int]] = {}  # V2 vertex -> its candidates, shuffled
    for u in aux.v2:
        mask = (1 << link.n_x) - 1
        for a in aux.neighbors_of_v2(u):
            mask &= ymasks[v1_map[a]]
        dom[u] = mask
        order[u] = bits(mask)
        rng.shuffle(order[u])

    _, short = _match(aux.v2, order, dom)
    if short:
        raise RetriesExhausted(
            f"no injective placement: the candidates of {len(short)} V2 "
            f"vertices cover only {len(short) - 1} X-vertices (Hall)"
        )

    # One arc (w, u) per special cycle, kept as arcs_of[w].  compat[u][xw]
    # is the bitmask of the images of u that make a cycle through u
    # admissible with its face-vertex on xw: u fixes the cycle's Y-pair, so
    # the row depends on u and xw alone and is built once.
    # disk_mask(xu, xw, ya, yb) is the AND of the column masks
    # disk_mask(x, x, ya, yb) of xu and xw, which are worked out once per
    # pair-vertex u, over its candidates: a face-vertex's face holds u's
    # edge, so its candidates are among them.  A leaf reads its center sets
    # from these columns too.  The candidates of u are ranked once by
    # column size, and a row takes the partners that open_partners settles
    # as admissible as one suffix of that ranking, ANDing only the partners
    # it leaves open.
    disk_mask, n_z = link.host.disk_mask, link.host.n_z
    columns: dict[int, dict[int, int]] = {}
    compat: dict[int, dict[int, int]] = {}
    ranks: dict[int, tuple[list[int], list[int], list[int], list[int]]] = {}
    arcs_of: dict[int, list[int]] = {}
    for sc in aux.special_cycles:
        if sc.u not in ranks:
            ya, yb = v1_map[sc.a], v1_map[sc.b]
            col = columns[sc.u] = {x: disk_mask(x, x, ya, yb) for x in bits(dom[sc.u])}
            xs = sorted(col, key=lambda x: col[x].bit_count())
            cols, xbits = [col[x] for x in xs], [1 << x for x in xs]
            # suffix[i]: the candidates ranked i and on
            suffix = [*itertools.accumulate(reversed(xbits), operator.or_, initial=0)][::-1]
            ranks[sc.u] = ([c.bit_count() for c in cols], cols, xbits, suffix)
        col = columns[sc.u]
        sizes, cols, xbits, suffix = ranks[sc.u]
        rows = compat.setdefault(sc.u, {})
        for xw in bits(dom[sc.w]):
            if xw not in rows:
                cw = col[xw]
                lo, hi = open_partners(cw.bit_count(), sizes, K, n_z, len(sizes))
                m = suffix[hi]
                for i in range(lo, hi):
                    if (cw & cols[i]).bit_count() > K:
                        m |= xbits[i]
                rows[xw] = m & ~(1 << xw)
        arcs_of.setdefault(sc.w, []).append(sc.u)

    def no_placement(why: str) -> RetriesExhausted:
        return RetriesExhausted(
            f"no admissible placement: {why} (K={K}, "
            f"{len(aux.special_cycles)} special cycles)"
        )

    # Arc consistency: keep a candidate only while every arc through its
    # vertex offers it a compatible partner; repeat until nothing changes.
    # A face-vertex's cycles are consecutive, so the arcs go in cycle order.
    changed = True
    while changed:
        changed = False
        for w, u in ((w, u) for w, us in arcs_of.items() for u in us):
            keep_w = keep_u = 0
            du, rows = dom[u], compat[u]
            for xw in bits(dom[w]):
                m = rows[xw] & du
                if m:
                    keep_w |= 1 << xw
                    keep_u |= m
            if keep_w != dom[w] or keep_u != du:
                if not keep_w:
                    raise no_placement(f"pruning leaves V2 vertex {w} no image admissible with {u}")
                dom[w], dom[u] = keep_w, keep_u
                changed = True
    if _match(aux.v2, order, dom)[0] is None:
        raise no_placement("the admissible candidates admit no injective placement")

    rest = [v for v in aux.v2 if v not in arcs_of]
    budget = cfg.retry_limit ** 2
    nodes = 0
    placed: dict[int, int] = {}  # face-vertex -> its image on the current path
    keep = ~(1 << link.z)

    def search(dom: dict[int, int], used: int, left: list[int]) -> Embedding | None:
        nonlocal nodes
        if not left:  # a leaf: match the pair-vertices, then find distinct centers
            matched, _ = _match(rest, order, {v: dom[v] & ~used for v in rest})
            if matched is None:
                return None
            img = placed | matched
            centers = assign_centers([
                columns[sc.u][img[sc.u]] & columns[sc.u][img[sc.w]] & keep
                for sc in aux.special_cycles
            ])
            if centers is None:
                return None
            return Embedding(v1_map=v1_map, v2_map={u: img[u] for u in aux.v2}, center_map=centers)
        # the face-vertex with the fewest free candidates goes next
        w = min(left, key=lambda v: (dom[v] & ~used).bit_count())
        others = [v for v in left if v != w]
        free = dom[w] & ~used
        for x in order[w]:
            if not (free >> x) & 1:
                continue
            nodes += 1
            if nodes > budget:
                raise RetriesExhausted(
                    f"V2 placement search spent its budget of {budget} nodes "
                    f"without deciding (K={K})"
                )
            taken = used | 1 << x
            child = dict(dom)
            for u in arcs_of[w]:
                child[u] &= compat[u][x]
            if all(child[v] & ~taken for v in others) and all(
                child[u] & ~taken for u in arcs_of[w]
            ):
                placed[w] = x
                if emb := search(child, taken, others):
                    return emb
        return None

    if emb := search(dom, 0, list(arcs_of)):
        return emb
    raise no_placement(f"exhaustive search over {nodes} nodes")


def _match(
    verts,
    order: Mapping[int, list[int]] | Sequence[list[int]],
    allowed: Mapping[int, int] | Sequence[int],
    owner: dict[int, int] | None = None,
) -> tuple[dict[int, int] | None, list[int]]:
    """An injective map of ``verts`` into their ``allowed`` masks (Kuhn).

    ``order`` and ``allowed`` are indexed by vertex.  Candidates are tried
    in ``order``, starting from the partial map
    ``owner`` (X-vertex -> vertex placed on it), which is updated in place.
    Returns ``(map, [])``, or ``(None, S)`` for a set S of vertices whose
    allowed sets together hold only |S| - 1 X-vertices, which shows that no
    such map exists.
    """
    owner = {} if owner is None else owner

    def augment(v: int, seen: set[int]) -> bool:
        for x in order[v]:
            if (allowed[v] >> x) & 1 and x not in seen:
                seen.add(x)
                if x not in owner or augment(owner[x], seen):
                    owner[x] = v
                    return True
        return False

    for v in verts:
        seen: set[int] = set()
        if not augment(v, seen):
            # every X-vertex the failed search reached is taken, and together
            # they are all the candidates of v and of the vertices on them
            return None, [v] + [owner[x] for x in seen]
    return {v: x for x, v in owner.items()}, []


def assign_centers(center_sets: Sequence[int]) -> dict[int, int] | None:
    """Distinct centers for the special cycles, or None when none exist.

    ``center_sets[ci]`` is the bitmask over Z of the centers open to cycle
    ci: those completing its image to 4-disks, other than the link vertex
    (``embed_v2`` works them out).  Each cycle takes its first free center
    in cycle order; any cycle left without one is then placed by an
    augmenting path (``_match``), so the result, cycle index -> center, is
    a system of distinct representatives whenever one exists.
    """
    owner: dict[int, int] = {}  # center -> cycle index
    taken, short = 0, []
    for ci, mask in enumerate(center_sets):
        free = mask & ~taken
        if free:
            taken |= free & -free
            owner[(free & -free).bit_length() - 1] = ci
        else:
            short.append(ci)
    order = [bits(mask) for mask in center_sets] if short else []
    return _match(short, order, center_sets, owner)[0]


def assert_valid_embedding(cert: HomeomorphCertificate, host: TripartiteHost) -> None:
    """Hand a finished certificate to ``verify_certificate``.

    Raises RuntimeError naming the verifier's failed check and reason: a
    refusal here is a construction bug, not an expected input failure.
    """
    result = verify_certificate(cert, host)
    if not result.passed:
        raise RuntimeError(
            f"verify_certificate refused the certificate found: "
            f"check {result.check}: {result.reason}"
        )


def _aux_graph_within_capacity(host: TripartiteHost, target: ThreeGraph, K: int) -> AuxGraph:
    """The target's auxiliary graph, or CapacityExceeded for a host too
    small for the glued subdivision, before any search.

    The original vertices need v(H) distinct images in Y, checked before the
    auxiliary graph (whose V1 has v(H) entries) is built, and the added ones
    |V2| in X.  A 4-cycle bounds at most n_z disks, so none is admissible
    unless K < n_z; and the 3 e(H) special cycles need distinct centers in Z
    besides the link vertex.
    """
    if target.v > host.n_y:
        raise CapacityExceeded(f"v(H) = {target.v} exceeds n_y = {host.n_y}")
    aux = target.aux_graph
    if len(aux.v2) > host.n_x:
        raise CapacityExceeded(
            f"|V2| = {len(aux.v2)} added vertices exceed n_x = {host.n_x}"
        )
    if K >= host.n_z:
        raise CapacityExceeded(
            f"K = {K} is not below n_z = {host.n_z}, so no 4-cycle is admissible"
        )
    if 3 * target.e >= host.n_z:
        raise CapacityExceeded(
            f"3 e(H) = {3 * target.e} special cycles need distinct centers "
            f"besides the link vertex, but n_z = {host.n_z}"
        )
    return aux


def find_homeomorph(
    host: TripartiteHost, target: ThreeGraph, cfg: Config
) -> HomeomorphCertificate:
    """End-to-end search for a homeomorphic copy of the target in the host.

    Raises a PipelineError tagged with the failing stage: CapacityExceeded
    (stage ``capacity``) before any search when the host classes are too
    small for the target at this K, and a later stage when the host is too
    sparse for the configured constants or, at ``embed_v2``, when no
    admissible injective placement of the added vertices with distinct
    centers exists for the chosen core or the search spends its budget.
    The certificate returned is the one ``verify_certificate`` passed; a
    refusal raises RuntimeError (a construction bug, not a PipelineError).
    """
    K = cfg.k_for(target)
    aux = _aux_graph_within_capacity(host, target, K)
    choice = pick_link_vertex(host, cfg, K, HostIndex(host))
    n = max(host.class_sizes)

    _, yprime = select_core_set(choice.link, choice.bad_pairs, cfg, n, choice.q)
    problem = build_problem_graph(choice.link, choice.bad_pairs, yprime, n, choice.q)
    core = find_complete_subgraph(problem, target.v)
    v1_map = {v: core[i] for i, v in enumerate(aux.v1)}

    rng = random.Random(derive_seed(cfg.rng_seed))
    emb = embed_v2(aux, v1_map, choice.link, cfg, rng, K=K)
    cert = HomeomorphCertificate(target=target, embedding=emb)
    assert_valid_embedding(cert, host)
    return cert
