"""Brute-force oracles: independent ground truth for the search stages.

They live with the tests, so no shipping code can call them, and a test
that compares one with the code that ships compares two paths.

For the host: ``table`` reads its z-mask table as one dict from flat index
to mask, for the slots that hold a face, which the host itself never
builds;
``host_faces`` decodes that table into sorted face tuples, which the host
never lists either, and ``link_y_transpose`` builds the Y side of a link by
a face-membership scan.

For ``links``: ``iter_link_cycles``, the one other walk over a link's
4-cycles (over X-pairs), and ``count_disks``, a face-membership scan
independent of ``TripartiteHost.pair_columns``; the first yields and the
second takes a cycle as a plain tuple ``(x1, x2, y1, y2)`` with x1 < x2
and y1 < y2.  ``disk_mask`` is no oracle but a reader: the centers of a
cycle as the search sees them, the AND of its two pair columns.  Two more check the z-scan's expectation arguments in exact
rational arithmetic: ``expectation_oracle`` (the mean of e(L_z) is
e(G)/n_Z) and ``forbidden_expectation_oracle`` (the double count behind
the mean of B_z).

For ``embed``: ``clique_oracle``, an exhaustive scan over t-subsets of Y',
checks ``find_complete_subgraph``, and ``arc_consistency_oracle``, a
brute-force fixed point over the special cycles with columns read off
``has``, checks ``embed_v2``'s pruned domains.

For ``verify``: ``relabel_oracle`` judges a face list it is given the
other way round from the verifier: it relabels each face through the
inverted maps and compares the set with ``stellar_subdivision`` of the
target.  ``certificate_chi_oracle`` counts the 1-cells of a certificate
complex with ``one_cells`` over its faces, so that every certificate the
verifier passes is checked to have the target's chi.
``stellar_subdivision`` applies three rounds of stellar subdivision to a
target's faces, so that the faces the verifier maps, read off the special
cycles by ``HomeomorphCertificate.host_faces``, are checked to be the
target subdivided, which is what makes a passing certificate a
homeomorphic copy.  ``label_embedding`` is no oracle but the embedding
that names each vertex of that subdivision by the label
``stellar_subdivision`` gives it, so that ``host_faces`` under it lists
the subdivision's faces by label.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from homeofind.core import (
    Embedding,
    HomeomorphCertificate,
    ThreeGraph,
    TripartiteHost,
    bits,
    one_cells,
)
from homeofind.embed import ProblemGraph
from homeofind.links import HostIndex, LinkGraph


def table(host: TripartiteHost) -> dict[int, int]:
    """The host's z-mask table as a dict from flat index x * n_y + y to
    mask, for the slots whose mask is not 0, in flat order."""
    return {i: mask for i, mask in enumerate(host.masks) if mask}


def host_faces(host: TripartiteHost) -> list[tuple[int, int, int]]:
    """The faces of ``host`` in lexicographic order: its table sorted by
    flat index x * n_y + y, each entry with the set bits of its mask."""
    ny = host.n_y
    return [(i // ny, i % ny, z) for i, m in sorted(table(host).items()) for z in bits(m)]


def disk_mask(host: TripartiteHost, xa: int, xb: int, ya: int, yb: int) -> int:
    """Bitmask over Z of the centers completing the cycle (xa, xb, ya, yb)
    to 4-disks: the AND of its two columns in ``host.pair_columns``."""
    return (cols := host.pair_columns(ya, yb))[xa] & cols[xb]


def count_disks(host: TripartiteHost, c: tuple[int, int, int, int]) -> int:
    """Number of z whose link contains the cycle ``(x1, x2, y1, y2)``; direct
    membership scan.

    Deliberately independent of ``TripartiteHost.pair_columns`` so the two code
    paths can be checked against each other.
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
    masks = [link.gamma(x) for x in range(link.n_x)]
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
                counts[c] = disk_mask(host, *c).bit_count()
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


def relabel_oracle(cert: HomeomorphCertificate, host: TripartiteHost, faces) -> bool:
    """Whether ``faces``, as the host faces of ``cert``, make a copy of its
    target: each is a host face and there are 12 e(H) of them, the maps are
    injective with distinct centers and keyed by exactly the target's
    vertices (sent into Y), V2 and the special cycles, and relabeling each
    face through the inverted maps, by ``label_embedding``, gives the
    target after ``stellar_subdivision``'s three rounds face for face."""
    target, emb = cert.target, cert.embedding
    aux = target.aux_graph
    if not all(host.has(*f) for f in faces) or len(faces) != 12 * target.e:
        return False
    maps = (emb.v1_map, emb.v2_map, emb.center_map)
    if any(len(set(m.values())) != len(m) for m in maps):
        return False
    if [set(m) for m in maps] != [set(aux.v1), set(aux.v2), set(range(3 * target.e))]:
        return False
    if not all(0 <= y < host.n_y for y in emb.v1_map.values()):
        return False
    lab = label_embedding(target)
    y_label, x_label, z_label = (
        {m[key]: label for key, label in by_key.items()}
        for m, by_key in zip(maps, (lab.v1_map, lab.v2_map, lab.center_map))
    )
    if not all(x in x_label and y in y_label and z in z_label for x, y, z in faces):
        return False
    relabeled = {frozenset({x_label[x], y_label[y], z_label[z]}) for x, y, z in faces}
    return relabeled == set(stellar_subdivision(target)[1])


def label_embedding(h: ThreeGraph) -> Embedding:
    """The embedding that maps every vertex of ``h``'s glued subdivision
    to its label: ``("orig", v)`` for a target vertex, the auxiliary
    graph's tag for a V2 vertex, and ``("corner", f, e)`` for the special
    cycle of face f and pair e, read off the tags at its w and u."""
    aux = h.aux_graph
    tag = dict(zip(aux.v2, aux.v2_tags))
    return Embedding(
        v1_map={v: ("orig", v) for v in aux.v1},
        v2_map=tag,
        center_map={
            ci: ("corner", tag[sc.w][1], tag[sc.u][1]) for ci, sc in enumerate(aux.special_cycles)
        },
    )


def certificate_chi_oracle(cert: HomeomorphCertificate) -> int:
    """chi of the certificate complex: the vertices its maps list, less the
    1-cells and plus the faces of its class-tagged host faces."""
    emb = cert.embedding
    v_count = len(emb.v1_map) + len(emb.v2_map) + len(emb.center_map)
    faces = set(cert.host_faces)
    cells = one_cells((("x", x), ("y", y), ("z", z)) for x, y, z in faces)
    return v_count - len(cells) + len(faces)


def clique_oracle(p: ProblemGraph, t: int) -> bool:
    """Ground truth for find_complete_subgraph by exhaustive t-subset scan."""
    verts = p.ground_set
    if len(verts) > 40:
        raise ValueError("clique_oracle is exponential; |Y'| must be <= 40")
    if t <= 0:
        return True
    if t > len(verts):
        return False
    bad = p.bad_triples
    for subset in itertools.combinations(verts, t):
        if all(tr not in bad for tr in itertools.combinations(subset, 3)):
            return True
    return False


def arc_consistency_oracle(host: TripartiteHost, aux, v1_map, dom, K: int) -> dict[int, int]:
    """The fixed point of ``embed_v2``'s arc consistency by brute force.

    For each special cycle (a, u, b, w), the column of x is the set of z
    with (x, a', z) and (x, b', z) faces (a' and b' the images of a and b),
    read off ``has``.  A candidate x of w is kept while some partner
    x' != x in u's domain has |col(x) & col(x')| > K, and a candidate of u
    likewise while some partner in w's domain does; every cycle is
    revised in turn until nothing changes.  ``dom`` maps each V2 vertex to
    its bitmask of candidates; the result is a new such dict, in which a
    domain may be empty.
    """
    dom = dict(dom)
    cols: dict[tuple[int, int, int], set[int]] = {}

    def col(x, ya, yb):
        if (x, ya, yb) not in cols:
            cols[x, ya, yb] = {
                z for z in range(host.n_z) if host.has(x, ya, z) and host.has(x, yb, z)
            }
        return cols[x, ya, yb]

    def admissible(x, x2, ya, yb):
        return x != x2 and len(col(x, ya, yb) & col(x2, ya, yb)) > K

    changed = True
    while changed:
        changed = False
        for sc in aux.special_cycles:
            ya, yb = v1_map[sc.a], v1_map[sc.b]
            ws, us = bits(dom[sc.w]), bits(dom[sc.u])
            keep_w = [x for x in ws if any(admissible(x, x2, ya, yb) for x2 in us)]
            keep_u = [x2 for x2 in us if any(admissible(x, x2, ya, yb) for x in ws)]
            if len(keep_w) < len(ws) or len(keep_u) < len(us):
                dom[sc.w] = sum(1 << x for x in keep_w)
                dom[sc.u] = sum(1 << x for x in keep_u)
                changed = True
    return dom


def link_y_transpose(host: TripartiteHost, z: int) -> tuple[int, ...]:
    """The Y side of L_z by a face-membership scan: per y, the bitmask over
    X of the x with (x, y, z) a face.  Independent of the host's table
    order and of ``TripartiteHost.link_y``'s strided reads."""
    return tuple(
        sum(1 << x for x in range(host.n_x) if host.has(x, y, z)) for y in range(host.n_y)
    )


def _stellar(faces: list[frozenset], simplex: frozenset, apex) -> list[frozenset]:
    """The stellar subdivision of the 2-complex ``faces`` at ``simplex``,
    with the new vertex ``apex``: each face F that contains the simplex
    gives way to the faces F - {s} + {apex}, one per vertex s of the
    simplex, and every other face stays."""
    out = []
    for face in faces:
        if simplex <= face:
            out += [face - {s} | {apex} for s in simplex]
        else:
            out.append(face)
    return out


def stellar_subdivision(h: ThreeGraph) -> tuple[set, list[frozenset]]:
    """The vertices and faces (each a frozenset of labels) of ``h`` after
    three rounds of stellar subdivision, labelled as ``label_embedding``
    labels them: every face f at ``("face", f)``, then every covered pair
    e at ``("pair", e)``, then every edge between ``("pair", e)`` and
    ``("face", f)`` for e in f at the corner ``("corner", f, e)``.  Built
    from the target's faces alone, by the one move, and never from its
    auxiliary graph or ``covered_pairs``."""
    faces = [frozenset(("orig", v) for v in f) for f in sorted(h.faces)]
    vertices = {("orig", v) for v in range(h.vertex_count)}
    for f in sorted(h.faces):
        faces = _stellar(faces, frozenset(("orig", v) for v in f), ("face", f))
        vertices.add(("face", f))
    for e in sorted({e for f in h.faces for e in itertools.combinations(f, 2)}):
        faces = _stellar(faces, frozenset(("orig", v) for v in e), ("pair", e))
        vertices.add(("pair", e))
    for f in sorted(h.faces):
        for e in itertools.combinations(f, 2):
            faces = _stellar(faces, frozenset({("pair", e), ("face", f)}), ("corner", f, e))
            vertices.add(("corner", f, e))
    return vertices, faces
