"""Property tests of the flat-file parsers: round-trips and token fuzzing."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from homeofind.core import ThreeGraph, TripartiteHost
from homeofind.io import (
    FormatError,
    parse_certificate,
    parse_host,
    parse_threegraph,
    write_host,
    write_threegraph,
)


@st.composite
def hosts(draw):
    sizes = tuple(draw(st.integers(0, 4)) for _ in range(3))
    cells = list(itertools.product(*map(range, sizes)))
    faces = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return TripartiteHost(sizes, frozenset(faces))


@st.composite
def threegraphs(draw):
    v = draw(st.integers(0, 7))
    triples = list(itertools.combinations(range(v), 3))
    faces = draw(st.lists(st.sampled_from(triples), unique=True)) if triples else []
    return ThreeGraph(v, frozenset(faces))


FILLER = ["", " ", "\t", "# a comment", "  #indented 1 2 3", "#"]


@st.composite
def noisy(draw, text):
    """``text`` with comments, blank lines, mixed whitespace, CRLF line
    ends, shuffled face lines and repeated face lines mixed in."""
    header, *body = text.splitlines()
    if body:
        body += draw(st.lists(st.sampled_from(body), max_size=4))
        body = draw(st.permutations(body))
    sep = st.text(alphabet=" \t", min_size=1, max_size=3)
    pad = st.text(alphabet=" \t", max_size=2)
    out = []
    for line in [header, *body]:
        out += draw(st.lists(st.sampled_from(FILLER), max_size=2))
        toks = line.split()
        spaced = "".join(t + draw(sep) for t in toks[:-1]) + toks[-1]
        out.append(draw(pad) + spaced + draw(pad))
    out += draw(st.lists(st.sampled_from(FILLER), max_size=2))
    return draw(st.sampled_from(["\n", "\r\n"])).join(out)


class TestRoundTrip:
    # The noise may be empty, so the plain parse(write(x)) == x is covered.
    @settings(max_examples=100, deadline=None)
    @given(st.data(), hosts())
    def test_host_with_noise(self, data, host):
        text = data.draw(noisy(write_host(host)))
        assert parse_host(text) == host

    @settings(max_examples=100, deadline=None)
    @given(st.data(), threegraphs())
    def test_threegraph_with_noise(self, data, h):
        text = data.draw(noisy(write_threegraph(h)))
        assert parse_threegraph(text) == h


# Directives of all three formats, comment markers, non-numeric garbage and
# small integers (kept small so that a parsed header stays cheap to build).
TOKENS = st.one_of(
    st.sampled_from(["tph", "f", "tg", "cert", "v1", "disk", "hf", "#", "#x"]),
    st.text(alphabet="abxyz.+-_#", min_size=1, max_size=3),
    st.integers(-2, 6).map(str),
)
STREAMS = st.lists(
    st.lists(TOKENS, max_size=8).map(" ".join), max_size=12
).map("\n".join)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(STREAMS)
    def test_parse_or_format_error(self, text):
        for parse in (parse_host, parse_threegraph, parse_certificate):
            try:
                parse(text)
            except FormatError:
                pass
