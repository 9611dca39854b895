"""The builtin targets are the ``.tg`` files shipped in ``homeofind/data``.

Every test here reads the directory listing, so a new data file is covered
without a test edit: its name resolves through ``load_target``, it is found
and verified on one seeded dense host, and it is refused by capacity on a
host one X-vertex too narrow for its glued subdivision.  What each shipped
file claims to be (its vertex and face counts, Euler characteristic, and
for the surfaces that every covered pair lies in two faces) is pinned, as
is README's table of builtin targets, and each file is kept in the
canonical form that ``write_threegraph`` writes.
"""

import re
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import homeofind
from homeofind.core import (
    Config,
    TripartiteHost,
    build_aux_graph,
    euler_characteristic,
)
from homeofind.embed import find_homeomorph
from homeofind.errors import PipelineError
from homeofind.harness import gen_random_host
from homeofind.io import FormatError, load_target, write_threegraph
from homeofind.verify import verify_certificate

DATA = Path(homeofind.__file__).resolve().parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"
NAMES = sorted(p.stem for p in DATA.glob("*.tg"))

# (v, e, chi) of each shipped file
PINNED = {
    "triangle": (3, 1, 1),
    "k4": (4, 4, 2),
    "book3": (5, 3, 1),
    "bowtie": (5, 2, 1),
    "two_triangles": (6, 2, 2),
    "rp2": (6, 10, 1),
    "torus7": (7, 14, 0),
}
CLOSED_SURFACES = ["k4", "rp2", "torus7"]


def test_builtin_names_are_the_data_files():
    # the refusal of an unknown name lists what is shipped
    with pytest.raises(FormatError) as info:
        load_target("builtin:nope")
    assert str(info.value).endswith(f"shipped: {', '.join(NAMES)}")
    assert set(NAMES) == set(PINNED), "pin (v, e, chi) of every shipped file"


@pytest.mark.parametrize("name", NAMES)
def test_data_file_is_canonical(name):
    # a comment header, then exactly what write_threegraph writes
    lines = (DATA / f"{name}.tg").read_text().splitlines()
    assert lines[0].startswith("#")
    body = [line for line in lines if not line.startswith("#")]
    assert "\n".join(body) + "\n" == write_threegraph(load_target(f"builtin:{name}"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shipped_counts(name):
    h = load_target(f"builtin:{name}")
    assert (h.vertex_count, h.e, euler_characteristic(h)) == PINNED[name]


def test_readme_table_lists_the_shipped_files():
    # one row `builtin:NAME` | complex | v, e, chi per shipped file
    rows = re.findall(
        r"^\| `builtin:(\w+)` \|[^|\n]*\| (-?\d+), (-?\d+), (-?\d+) \|$",
        README.read_text(encoding="utf-8"),
        re.MULTILINE,
    )
    table = {name: tuple(map(int, counts)) for name, *counts in rows}
    assert len(table) == len(rows), "one README row per target"
    assert sorted(table) == NAMES
    assert table == PINNED


@pytest.mark.parametrize("name", CLOSED_SURFACES)
def test_closed_surface(name):
    # each edge of a closed surface lies in exactly two faces
    h = load_target(f"builtin:{name}")
    uses = Counter(pair for face in h.faces for pair in combinations(face, 2))
    assert set(uses.values()) == {2}


@pytest.fixture(scope="module")
def dense48():
    return gen_random_host(48, 48, 48, 0.55, 500)


@pytest.mark.parametrize("name", NAMES)
def test_every_builtin_is_found_and_verified(name, dense48):
    target = load_target(f"builtin:{name}")
    cert = find_homeomorph(dense48, target, Config(C=2, k_threshold=3, rng_seed=0))
    assert cert.target == target
    assert verify_certificate(cert, dense48).passed


@pytest.mark.parametrize("name", NAMES)
def test_every_builtin_stops_at_capacity_one_x_short(name):
    target = load_target(f"builtin:{name}")
    width = len(build_aux_graph(target).v2) - 1
    host = TripartiteHost((width, 48, 48), [])
    with pytest.raises(PipelineError) as info:
        find_homeomorph(host, target, Config(C=2, k_threshold=3, rng_seed=0))
    assert info.value.stage == "capacity"
    assert f"exceed n_x = {width}" in str(info.value)
