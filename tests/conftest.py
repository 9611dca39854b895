import itertools
import random

import pytest

from homeofind.core import HomeomorphCertificate, ThreeGraph, TripartiteHost, one_cells
from homeofind.embed import ProblemGraph
from homeofind.links import HostIndex
from oracles import host_faces, label_embedding


def random_threegraph(rng: random.Random, max_v: int = 9, max_e: int = 12) -> ThreeGraph:
    v = rng.randint(0, max_v)
    if v < 3:
        return ThreeGraph(v, frozenset())
    all_faces = list(itertools.combinations(range(v), 3))
    e = rng.randint(0, min(max_e, len(all_faces)))
    return ThreeGraph(v, frozenset(rng.sample(all_faces, e)))


def labelled_shape(h: ThreeGraph) -> tuple[list[tuple], tuple[tuple, ...]]:
    """The vertices and faces of ``h``'s glued subdivision as the shipping
    code reads them: the labels of ``label_embedding``, and
    ``HomeomorphCertificate.host_faces`` under it."""
    lab = label_embedding(h)
    labels = [*lab.v1_map.values(), *lab.v2_map.values(), *lab.center_map.values()]
    return labels, HomeomorphCertificate(h, lab).host_faces


def shape_counts(labels, faces) -> tuple[int, int, int, int]:
    """A shape's vertices, 1-cells, faces and chi."""
    v, one, f = len(labels), len(one_cells(faces)), len(faces)
    return v, one, f, v - one + f


def random_host(rng: random.Random, nx: int, ny: int, nz: int, p: float) -> TripartiteHost:
    faces = frozenset(
        (x, y, z)
        for x in range(nx)
        for y in range(ny)
        for z in range(nz)
        if rng.random() < p
    )
    return TripartiteHost((nx, ny, nz), faces)


def complete_host(n: int) -> TripartiteHost:
    faces = frozenset(
        (x, y, z) for x in range(n) for y in range(n) for z in range(n)
    )
    return TripartiteHost((n, n, n), faces)


# parse_host's message for an f line, which a host text may not hold
F_LINE_REFUSED = "'f' lines belong to targets; a host's faces are 'm x y HEX' lines"


def face_text(host: TripartiteHost) -> str:
    """``host`` as a ``.tph``-like text of one ``f x y z`` line per face, in
    sorted order.  It is only the test-side rendering that the
    ``gen_random_host`` digests hash: ``parse_host`` refuses its first
    face line, and a host's text is ``write_host``'s ``m`` lines."""
    lines = [f"tph {host.n_x} {host.n_y} {host.n_z}"]
    lines += [f"f {x} {y} {z}" for x, y, z in host_faces(host)]
    return "\n".join(lines) + "\n"


def pair_verdicts(link, good, by_pair) -> tuple[int, ...]:
    """Per y, the bitmask of the y' with {y, y'} bad: ``good(d, forb)`` fails
    on the pair's common degree d and its count in ``by_pair`` (a pair left
    out counts 0).  The reference form of ``LinkChoice.bad_pairs``."""
    ym = link.y_masks
    bad = [0] * link.n_y
    for y1, y2 in itertools.combinations(range(link.n_y), 2):
        if not good((ym[y1] & ym[y2]).bit_count(), by_pair.get((y1, y2), 0)):
            bad[y1] |= 1 << y2
            bad[y2] |= 1 << y1
    return tuple(bad)


def problem_of(ground, triples) -> ProblemGraph:
    """D(Y') over ``ground`` given as sorted triples (a < b < c), expanded
    here into one mask per pair a < b of ``ground`` over the c it closes a
    triple with; no ``build_problem_graph`` memo is involved."""
    ground = tuple(ground)
    masks = dict.fromkeys(itertools.combinations(ground, 2), 0)
    for a, b, c in triples:
        masks[(a, b)] |= 1 << c
    return ProblemGraph(ground, masks)


def link_of(n_x, n_y, edges):
    """L_0 of the host whose faces are the (x, y, 0) of ``edges``."""
    return HostIndex(TripartiteHost((n_x, n_y, 1), [(x, y, 0) for x, y in edges])).link(0)


def pair_masks(bad_pairs, n_y):
    """Per y, the bitmask of the y' with {y, y'} in ``bad_pairs``: the form
    of ``LinkChoice.bad_pairs``."""
    masks = [0] * n_y
    for a, b in bad_pairs:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return tuple(masks)


HUB_ROWS, HUB_N = 8, 27


def hub_link(rng):
    """A link of 8 X-rows over 27 Y-vertices in which one to three "hub"
    rows have density 0.95 and the rest 0.3, and a random set of bad pairs
    (rate 0.1).  At C = 10 and q = 10/27 only hubs pass (A), and a hub
    with no other hub beside it fails (C).  The bound T_x <= C(s, 3) never
    settles (C) there (it needs s <= 20), so the triples are counted."""
    hubs = rng.sample(range(HUB_ROWS), rng.randint(1, 3))
    link = link_of(HUB_ROWS, HUB_N, [
        (x, y) for x in range(HUB_ROWS) for y in range(HUB_N)
        if rng.random() < (0.95 if x in hubs else 0.3)
    ])
    bad_pairs = {pr for pr in itertools.combinations(range(HUB_N), 2) if rng.random() < 0.1}
    return link, bad_pairs


@pytest.fixture(scope="session")
def complete30() -> TripartiteHost:
    return complete_host(30)
