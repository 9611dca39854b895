"""Property tests of the flat-file parsers: round-trips and token fuzzing."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from homeofind.core import ThreeGraph, TripartiteHost
from homeofind.io import (
    FormatError,
    load_target,
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


def reference_parse_host(text):
    """``parse_host`` written plainly, with one ``int()`` per token read."""
    sizes = None
    faces = []
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] not in ("tph", "f"):
            raise FormatError(f"line {lineno}: unknown directive {tok[0]!r}")
        if tok[0] == "tph" and sizes is not None:
            raise FormatError(f"line {lineno}: duplicate tph header")
        if tok[0] == "f" and sizes is None:
            raise FormatError(f"line {lineno}: face before tph header")
        if len(tok) != 4:
            shape = "tph nx ny nz" if tok[0] == "tph" else "f x y z"
            raise FormatError(f"line {lineno}: expected '{shape}'")
        try:
            ints = (int(tok[1]), int(tok[2]), int(tok[3]))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if tok[0] == "tph":
            sizes = ints
        else:
            faces.append(ints)
            lines.append(lineno)
    if sizes is None:
        raise FormatError("missing tph header")
    try:
        return TripartiteHost(sizes, faces)
    except ValueError as exc:
        for lineno, face in zip(lines, faces):
            if not all(0 <= c < n for c, n in zip(face, sizes)):
                raise FormatError(f"line {lineno}: {exc}") from exc
        raise FormatError(str(exc)) from exc


def outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc)


# Spellings that int() accepts besides the canonical one, and near-integers
# that it rejects.
INTS = ["0", "1", "2", "3", "07", "+7", "-0", "1_0", "٣", "1000000000"]
SPELLINGS = INTS + ["-1", "1.0", "0x1", "_1", "1__0", "f", "#"]


@st.composite
def host_texts(draw):
    """Host-like texts: a header, face lines over ``SPELLINGS`` (mostly of
    the right length), a stray directive or noise, the header mostly on the
    first line."""
    cell = st.one_of(st.sampled_from(INTS), st.sampled_from(SPELLINGS))
    header = "tph " + " ".join(draw(st.lists(st.sampled_from(INTS[1:]), min_size=3, max_size=3)))
    arity = st.sampled_from([3] * 10 + [2, 4])
    face = arity.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k))
    faces = draw(st.lists(face.map(lambda t: "f " + " ".join(t)), max_size=10))
    odd = st.sampled_from(["tph 9 9 9", "tph 1 2", "g 0 0 0", "f", "f 0 0 0"] + FILLER)
    lines = draw(st.permutations([*faces, *draw(st.lists(odd, max_size=1))]))
    lines.insert(draw(st.sampled_from([0, 0, 0, min(1, len(lines))])), header)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


class TestParseHostMatchesReference:
    # parse_host converts each distinct token once; every value, spelling,
    # message and line number must be those of one int() per token.
    @settings(max_examples=300, deadline=None)
    @given(host_texts())
    def test_same_host_or_same_error(self, text):
        assert outcome(parse_host, text) == outcome(reference_parse_host, text)


# Directives of all three formats, comment markers, non-numeric garbage,
# small integers and large ones (headers are never built in proportion to
# their counts, so a huge one stays cheap).
TOKENS = st.one_of(
    st.sampled_from(["tph", "f", "tg", "cert", "v1", "disk", "hf", "#", "#x"]),
    st.text(alphabet="abxyz.+-_#", min_size=1, max_size=3),
    st.integers(-2, 6).map(str),
    st.sampled_from([10**9, 10**12, 4_000_000]).map(str),
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

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(st.sampled_from(["/", "..", ".tg", "", "data", "torus7", "k4", "\\", "\0"]))
        .map("".join),
    ))
    def test_builtin_lookup_or_format_error(self, text):
        # a name is looked up in the listing of shipped files, never as a path
        try:
            assert isinstance(load_target("builtin:" + text), ThreeGraph)
        except FormatError:
            pass
