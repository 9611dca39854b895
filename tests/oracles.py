"""Brute-force oracles: independent ground truth for the search stages.

They live with the tests, so no shipping code can call them, and a test
that compares one with the code that ships compares two paths.

For the host: ``table`` reads its z-mask table as one dict from flat index
to mask, in the host's key order, which the host itself never builds;
``host_faces`` decodes that table into sorted face tuples, which the host
never lists either, and ``link_y_transpose`` builds the Y side of a link by
a face-membership scan.

For ``links``: ``iter_link_cycles``, the one other walk over a link's
4-cycles (over X-pairs), and ``count_disks``, a face-membership scan
independent of ``TripartiteHost.disk_mask``; the first yields and the
second takes a cycle as a plain tuple ``(x1, x2, y1, y2)`` with x1 < x2
and y1 < y2.  Two more check the z-scan's expectation arguments in exact
rational arithmetic: ``expectation_oracle`` (the mean of e(L_z) is
e(G)/n_Z) and ``forbidden_expectation_oracle`` (the double count behind
the mean of B_z).

For ``embed``: ``clique_oracle``, an exhaustive scan over t-subsets of Y',
checks ``find_complete_subgraph``.

For ``verify``: ``relabel_oracle`` judges a face list it is given the
other way round from the verifier: it relabels each face through the
inverted maps and compares the set with the canonical glued subdivision.
``certificate_chi_oracle`` counts the 1-cells of a certificate complex
with ``one_cells`` over its faces, so that every certificate the verifier
passes is checked to have the target's chi.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from homeofind.core import HomeomorphCertificate, TripartiteHost, bits, one_cells
from homeofind.embed import ProblemGraph
from homeofind.links import HostIndex, LinkGraph


def table(host: TripartiteHost) -> dict[int, int]:
    """The host's z-mask table as a dict from flat index x * n_y + y to
    mask, its entries in the order of the host's keys."""
    return dict(zip(host.keys, host.masks, strict=True))


def host_faces(host: TripartiteHost) -> list[tuple[int, int, int]]:
    """The faces of ``host`` in lexicographic order: its table sorted by
    flat index x * n_y + y, each entry with the set bits of its mask."""
    ny = host.n_y
    return [(i // ny, i % ny, z) for i, m in sorted(table(host).items()) for z in bits(m)]


def count_disks(host: TripartiteHost, c: tuple[int, int, int, int]) -> int:
    """Number of z whose link contains the cycle ``(x1, x2, y1, y2)``; direct
    membership scan.

    Deliberately independent of ``TripartiteHost.disk_mask`` so the two code
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
                counts[c] = host.disk_mask(*c).bit_count()
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
    face through the inverted maps, by the auxiliary graph's tags and
    cycles, gives the canonical glued subdivision face for face."""
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
    x_label = {emb.v2_map[u]: tag for u, tag in zip(aux.v2, aux.v2_tags)}
    y_label = {y: ("orig", v) for v, y in emb.v1_map.items()}
    z_label = {
        emb.center_map[ci]: ("corner", sc.face, sc.edge)
        for ci, sc in enumerate(aux.special_cycles)
    }
    if not all(x in x_label and y in y_label and z in z_label for x, y, z in faces):
        return False
    relabeled = {frozenset({x_label[x], y_label[y], z_label[z]}) for x, y, z in faces}
    return relabeled == {frozenset(f) for f in target.canonical_subdivision.faces}


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


def link_y_transpose(host: TripartiteHost, z: int) -> tuple[int, ...]:
    """The Y side of L_z by a face-membership scan: per y, the bitmask over
    X of the x with (x, y, z) a face.  Independent of the host's table
    order and of ``TripartiteHost.link_y``'s strided reads."""
    return tuple(
        sum(1 << x for x in range(host.n_x) if host.has(x, y, z)) for y in range(host.n_y)
    )
