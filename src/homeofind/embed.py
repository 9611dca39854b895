"""Dependent-random-choice core set selection, embedding and disk gluing.

The pipeline: pick a dense link L_z with few forbidden 4-cycles, classify
pairs and triples of Y as good or bad, pass (via an exhaustive scan over X)
to a core set Y' in which bad pairs and triples are rare, place the original
target vertices on a completely-good subset of Y', draw the added vertices
into X at random from common neighbourhoods, and finally glue one 4-disk
with a fresh center onto the image of every special cycle.

Both expectation arguments (the choice of z and the choice of x) are
derandomized by first-qualifying scans; randomness remains only in the V2
embedding, where the argument genuinely uses it, and is fully seeded.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import AuxGraph, Config, Face, Pair, ThreeGraph, TripartiteHost, build_aux_graph
from .errors import (
    AdmissibilityViolation,
    CenterExhausted,
    CliqueNotFound,
    EmptyCandidateSet,
    NoQualifyingX,
    RetriesExhausted,
)
from .exact import EpsScale
from .links import HostIndex, LinkGraph, _bits, count_forbidden, pick_link_vertex
from .seeding import derive_seed


@dataclass(frozen=True)
class PairStats:
    pair: Pair
    common_degree: int
    forbidden_through: int
    good: bool


@dataclass(frozen=True)
class TripleStats:
    triple: tuple[int, int, int]
    common_degree: int
    good: bool


@dataclass(frozen=True)
class ProblemGraph:
    """D(Y'): the triples of the core set that the embedding must avoid."""

    ground_set: tuple[int, ...]
    bad_triples: frozenset[tuple[int, int, int]]


@dataclass(frozen=True)
class Embedding:
    v1_map: dict[int, int]  # target vertex -> Y index
    v2_map: dict[int, int]  # aux V2 vertex -> X index
    center_map: dict[int, int]  # special-cycle index -> Z index


@dataclass(frozen=True)
class HomeomorphCertificate:
    target: ThreeGraph
    host_faces: tuple[Face, ...]
    provenance: dict[Face, tuple[Face, int, int]]  # face -> (H-face, cycle idx, role)
    embedding: Embedding


def classify_pairs_triples(
    link: LinkGraph,
    index: HostIndex,
    cfg: Config,
    K: int,
    scale: EpsScale,
    ys: list[int] | None = None,
    forbidden_by_pair: dict[Pair, int] | None = None,
) -> tuple[list[PairStats], list[TripleStats]]:
    """Good/bad statistics for every pair and triple of Y (or of ``ys``).

    A pair is good when its common neighbourhood has size at least
    n**(1-2*eps) and at most (K/C) n**(1-3*eps) |Gamma(y1,y2)| forbidden
    4-cycles pass through it; a triple is good when its common neighbourhood
    has size at least n**(1-3*eps).

    The per-pair forbidden counts are those of ``count_forbidden`` (passed in
    as ``forbidden_by_pair`` when the caller already has them), so no cycle
    is walked here.  Each threshold is an exact integer cutoff, worked out
    once per call (per distinct common degree for the forbidden count).
    """
    if forbidden_by_pair is None:
        _, forbidden_by_pair = count_forbidden(link, K, index)
    ys = list(range(link.n_y)) if ys is None else sorted(ys)
    ymasks = link.y_masks
    pair_min = scale.ceil(1, 1, 2)
    triple_min = scale.ceil(1, 1, 3)
    k_over_c = Fraction(K) / cfg.C
    forb_max: dict[int, int] = {}  # common degree -> largest good forbidden count

    pair_stats = []
    for i, y1 in enumerate(ys):
        m1 = ymasks[y1]
        for y2 in ys[i + 1:]:
            deg = (m1 & ymasks[y2]).bit_count()
            forb = forbidden_by_pair.get((y1, y2), 0)
            good = deg >= pair_min
            if good and forb:
                limit = forb_max.get(deg)
                if limit is None:
                    limit = forb_max[deg] = scale.floor(k_over_c * deg, 1, 3)
                good = forb <= limit
            pair_stats.append(PairStats((y1, y2), deg, forb, good))

    triple_stats = []
    for i, y1 in enumerate(ys):
        m1 = ymasks[y1]
        for j in range(i + 1, len(ys)):
            y2 = ys[j]
            m12 = m1 & ymasks[y2]
            for y3 in ys[j + 1:]:
                deg = (m12 & ymasks[y3]).bit_count()
                triple_stats.append(TripleStats((y1, y2, y3), deg, deg >= triple_min))
    return pair_stats, triple_stats


def select_core_set(
    link: LinkGraph,
    pair_stats: list[PairStats],
    triple_stats: list[TripleStats],
    cfg: Config,
    scale: EpsScale,
) -> tuple[int, list[int]]:
    """Y' = Gamma(x) for the first x passing the three scan inequalities.

    (A) |Gamma(x)| >= (C/4) n**(1-eps); (B) |Gamma(x)| bounds the surviving
    bad pairs P_x; (C) |Gamma(x)| bounds the surviving bad triples T_x.
    Returns (x, sorted Y').
    """
    C = cfg.C
    bad_pair_mask = [0] * link.n_y
    for ps in pair_stats:
        if not ps.good:
            a, b = ps.pair
            bad_pair_mask[a] |= 1 << b
            bad_pair_mask[b] |= 1 << a
    bad_triples = [ts.triple for ts in triple_stats if not ts.good]

    xmasks = link.x_masks
    for x in range(link.n_x):
        gmask = xmasks[x]
        s = gmask.bit_count()
        if s == 0:
            continue
        if scale.cmp(Fraction(4 * s) / C, 1, 1) < 0:
            continue
        p_x = sum((bad_pair_mask[y] & gmask).bit_count() for y in _bits(gmask)) // 2
        if p_x and scale.cmp(C * p_x / Fraction(12 * (1 + C) * s), 1, 1) > 0:
            continue
        t_x = sum(
            1
            for (a, b, c) in bad_triples
            if (gmask >> a) & 1 and (gmask >> b) & 1 and (gmask >> c) & 1
        )
        if t_x and scale.cmp(C * t_x / Fraction(6 * s), 2, 2) > 0:
            continue
        return x, _bits(gmask)
    raise NoQualifyingX(
        f"no x in X satisfies the core-set inequalities (C={cfg.C}, n={scale.n})"
    )


def build_problem_graph(
    yprime: list[int],
    pair_stats: list[PairStats],
    triple_stats: list[TripleStats],
) -> ProblemGraph:
    """D(Y'): triples of Y' that are bad or contain a bad pair."""
    yset = set(yprime)
    bad_pairs = {ps.pair for ps in pair_stats if not ps.good}
    bad = set()
    for ts in triple_stats:
        a, b, c = ts.triple
        if a in yset and b in yset and c in yset:
            if not ts.good or (a, b) in bad_pairs or (a, c) in bad_pairs or (b, c) in bad_pairs:
                bad.add(ts.triple)
    return ProblemGraph(ground_set=tuple(sorted(yset)), bad_triples=frozenset(bad))


def find_complete_subgraph(p: ProblemGraph, t: int) -> list[int]:
    """A t-subset of Y' containing no bad triple, by lexicographic backtracking."""
    verts = list(p.ground_set)
    if t <= 0:
        return []
    if t > len(verts):
        raise CliqueNotFound(f"|Y'| = {len(verts)} < t = {t}")
    bad = p.bad_triples
    chosen: list[int] = []

    def extend(start: int) -> bool:
        if len(chosen) == t:
            return True
        need = t - len(chosen)
        for i in range(start, len(verts) - need + 1):
            v = verts[i]
            ok = True
            for a, b in itertools.combinations(chosen, 2):
                if (a, b, v) in bad:
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(v)
            if extend(i + 1):
                return True
            chosen.pop()
        return False

    if extend(0):
        return chosen
    raise CliqueNotFound(
        f"no complete {t}-set in the complement of D(Y') "
        f"(|Y'|={len(verts)}, |D|={len(bad)})"
    )


def embed_v2(
    aux: AuxGraph,
    v1_map: dict[int, int],
    link: LinkGraph,
    cfg: Config,
    rng: random.Random,
) -> dict[int, int]:
    """Random injective placement of V2 into X.

    Each V2 vertex is drawn uniformly from the common link-neighbourhood of
    the images of its V1 neighbours; on any collision the whole map is
    resampled, up to cfg.retry_limit times.
    """
    ymasks = link.y_masks
    candidates: list[tuple[int, list[int]]] = []
    for u in aux.v2:
        mask = ~0
        first = True
        for a in aux.neighbors_of_v2(u):
            m = ymasks[v1_map[a]]
            mask = m if first else (mask & m)
            first = False
        cand = _bits(mask) if not first else []
        if not cand:
            raise EmptyCandidateSet(
                f"V2 vertex {u} has no candidates: common neighbourhood of "
                f"{[v1_map[a] for a in aux.neighbors_of_v2(u)]} is empty"
            )
        candidates.append((u, cand))

    collisions = 0
    for _ in range(cfg.retry_limit):
        images = {u: cand[rng.randrange(len(cand))] for u, cand in candidates}
        if len(set(images.values())) == len(images):
            return images
        collisions += 1
    raise RetriesExhausted(
        f"V2 embedding collided in all {cfg.retry_limit} attempts "
        f"({collisions} collisions)"
    )


def assign_centers(
    index: HostIndex,
    aux: AuxGraph,
    v1_map: dict[int, int],
    v2_map: dict[int, int],
    K: int,
    exclude_z: int,
) -> dict[int, int]:
    """Greedy distinct-center assignment over special cycles in fixed order.

    Every image cycle must be admissible (more than K disks); the chosen link
    vertex itself is never used as a center.  With K >= 3 e(H) the greedy
    scan cannot run out of candidates.
    """
    used: set[int] = set()
    center_map: dict[int, int] = {}
    for ci, sc in enumerate(aux.special_cycles):
        mask = index.disk_mask(v2_map[sc.u], v2_map[sc.w], v1_map[sc.a], v1_map[sc.b])
        if mask.bit_count() <= K:
            raise AdmissibilityViolation(
                f"image of special cycle {ci} bounds only {mask.bit_count()} "
                f"4-disks (K={K})"
            )
        chosen = None
        for z in _bits(mask):
            if z != exclude_z and z not in used:
                chosen = z
                break
        if chosen is None:
            raise CenterExhausted(f"no unused center for special cycle {ci}")
        used.add(chosen)
        center_map[ci] = chosen
    return center_map


def assert_valid_embedding(
    emb: Embedding, aux: AuxGraph, target: ThreeGraph, host: TripartiteHost
) -> None:
    """Independent validity pass over a finished embedding.

    Checks injectivity and every adjacency/containment directly against the
    raw host face set; raises RuntimeError on any violation (construction
    bugs, not expected input failures).
    """
    if len(set(emb.v1_map.values())) != len(emb.v1_map):
        raise RuntimeError("v1_map not injective")
    if len(set(emb.v2_map.values())) != len(emb.v2_map):
        raise RuntimeError("v2_map not injective")
    if len(set(emb.center_map.values())) != len(emb.center_map):
        raise RuntimeError("centers not distinct")
    if set(emb.v1_map) != set(aux.v1):
        raise RuntimeError("v1_map domain mismatch")
    if set(emb.v2_map) != set(aux.v2):
        raise RuntimeError("v2_map domain mismatch")
    for ci, sc in enumerate(aux.special_cycles):
        c = emb.center_map[ci]
        ya, yb = emb.v1_map[sc.a], emb.v1_map[sc.b]
        xu, xw = emb.v2_map[sc.u], emb.v2_map[sc.w]
        for x in (xu, xw):
            for y in (ya, yb):
                if (x, y, c) not in host.faces:
                    raise RuntimeError(
                        f"4-disk face {(x, y, c)} of cycle {ci} missing from host"
                    )


def _assemble_certificate(
    target: ThreeGraph, aux: AuxGraph, emb: Embedding
) -> HomeomorphCertificate:
    faces: list[Face] = []
    provenance: dict[Face, tuple[Face, int, int]] = {}
    for ci, sc in enumerate(aux.special_cycles):
        c = emb.center_map[ci]
        ya, yb = emb.v1_map[sc.a], emb.v1_map[sc.b]
        xu, xw = emb.v2_map[sc.u], emb.v2_map[sc.w]
        quad = [(xu, ya, c), (xu, yb, c), (xw, yb, c), (xw, ya, c)]
        for role, f in enumerate(quad):
            faces.append(f)
            provenance[f] = (sc.face, ci, role)
    return HomeomorphCertificate(
        target=target,
        host_faces=tuple(faces),
        provenance=provenance,
        embedding=emb,
    )


def find_homeomorph(
    host: TripartiteHost, target: ThreeGraph, cfg: Config
) -> HomeomorphCertificate:
    """End-to-end search for a homeomorphic copy of the target in the host.

    Raises a PipelineError tagged with the failing stage when the host is
    too sparse for the configured constants.
    """
    K = cfg.k_for(target)
    if K < 3 * target.e:
        raise ValueError(
            f"k_threshold = {K} below the gluing floor 3*e(H) = {3 * target.e}"
        )
    aux = build_aux_graph(target)
    index = HostIndex(host)

    choice = pick_link_vertex(host, cfg, K, index)
    n = max(host.class_sizes)
    scale = EpsScale(n=n, q=choice.q)

    pair_stats, triple_stats = classify_pairs_triples(
        choice.link, index, cfg, K, scale, forbidden_by_pair=choice.forbidden_by_pair
    )
    _, yprime = select_core_set(choice.link, pair_stats, triple_stats, cfg, scale)
    problem = build_problem_graph(yprime, pair_stats, triple_stats)
    core = find_complete_subgraph(problem, target.v)
    v1_map = {v: core[i] for i, v in enumerate(aux.v1)}

    last_violation = None
    for attempt in range(cfg.retry_limit):
        rng = random.Random(derive_seed(cfg.rng_seed, attempt))
        v2_map = embed_v2(aux, v1_map, choice.link, cfg, rng)
        try:
            center_map = assign_centers(index, aux, v1_map, v2_map, K, choice.z)
        except AdmissibilityViolation as exc:
            last_violation = exc
            continue
        emb = Embedding(v1_map=v1_map, v2_map=v2_map, center_map=center_map)
        assert_valid_embedding(emb, aux, target, host)
        return _assemble_certificate(target, aux, emb)

    raise RetriesExhausted(
        f"all {cfg.retry_limit} embedding attempts hit a forbidden special "
        f"cycle; last: {last_violation}"
    )
