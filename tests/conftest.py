import itertools
import random

import pytest

from homeofind.core import ThreeGraph, TripartiteHost


def random_threegraph(rng: random.Random, max_v: int = 9, max_e: int = 12) -> ThreeGraph:
    v = rng.randint(0, max_v)
    if v < 3:
        return ThreeGraph(v, frozenset())
    all_faces = list(itertools.combinations(range(v), 3))
    e = rng.randint(0, min(max_e, len(all_faces)))
    return ThreeGraph(v, frozenset(rng.sample(all_faces, e)))


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


@pytest.fixture(scope="session")
def complete30() -> TripartiteHost:
    return complete_host(30)
