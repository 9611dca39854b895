"""Property tests of the flat-file parsers: round-trips and token fuzzing."""

import itertools

import pytest
from conftest import face_text
from hypothesis import assume, given, settings
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
def host_lines(draw, host):
    """The lines of a text of ``host``, header first: its ``face_text``,
    its ``write_host`` text, or a mix in which each (x, y) entry is drawn
    as its ``f`` lines, its ``m`` line, or both."""
    form = draw(st.sampled_from([face_text, write_host, None]))
    if form is not None:
        return form(host).splitlines()
    ny = host.n_y
    lines = [f"tph {host.n_x} {ny} {host.n_z}"]
    for key, mask in sorted(host.zmasks.items()):
        x, y = divmod(key, ny)
        for kind in draw(st.sampled_from(["f", "m", "fm", "mf"])):
            if kind == "f":
                lines += [f"f {x} {y} {z}" for z in range(mask.bit_length()) if mask >> z & 1]
            else:
                lines.append(f"m {x} {y} {mask:x}")
    return lines


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
        text = data.draw(noisy("\n".join(data.draw(host_lines(host))) + "\n"))
        assert parse_host(text) == host

    @settings(max_examples=100, deadline=None)
    @given(st.data(), threegraphs())
    def test_threegraph_with_noise(self, data, h):
        text = data.draw(noisy(write_threegraph(h)))
        assert parse_threegraph(text) == h


def reference_parse_host(text):
    """``parse_host`` written plainly: one pass, one ``int()`` per token read,
    each line checked as it is read (header sizes on the header line; x,
    then y, then z on a face line, each first with ``int()`` and then
    against its class; x, then y, then the mask on an ``m`` line, the mask
    with ``int(tok, 16)`` and then for being positive and below
    ``1 << n_z``)."""
    sizes = None
    faces = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] not in ("tph", "f", "m"):
            raise FormatError(f"line {lineno}: unknown directive {tok[0]!r}")
        if tok[0] == "tph" and sizes is not None:
            raise FormatError(f"line {lineno}: duplicate tph header")
        if tok[0] != "tph" and sizes is None:
            what = "face" if tok[0] == "f" else "mask"
            raise FormatError(f"line {lineno}: {what} before tph header")
        if len(tok) != 4:
            shape = {"tph": "tph nx ny nz", "f": "f x y z", "m": "m x y HEX"}[tok[0]]
            raise FormatError(f"line {lineno}: expected '{shape}'")
        try:
            if tok[0] == "tph":
                sizes = tuple(int(t) for t in tok[1:])
                if min(sizes) < 0:
                    raise ValueError(
                        f"class sizes must be three non-negative integers, got {sizes}"
                    )
                continue
            face = []
            for name, t, n in zip("xy" if tok[0] == "m" else "xyz", tok[1:], sizes):
                c = int(t)
                if not 0 <= c < n:
                    raise ValueError(f"{name} = {c} is outside [0, {n})")
                face.append(c)
            if tok[0] == "f":
                faces.append(tuple(face))
                continue
            mask = int(tok[3], 16)
            if mask < 0:
                raise ValueError("mask is negative")
            if mask == 0:
                raise ValueError("mask 0 names no face")
            if mask.bit_length() > sizes[2]:
                raise ValueError(f"z = {mask.bit_length() - 1} is outside [0, {sizes[2]})")
            faces += [(*face, z) for z in range(mask.bit_length()) if mask >> z & 1]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    if sizes is None:
        raise FormatError("missing tph header")
    return TripartiteHost(sizes, faces)


def outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return str(exc)


# Spellings that int() accepts besides the canonical one, and near-integers
# that it rejects.
INTS = ["0", "1", "2", "3", "07", "+7", "-0", "1_0", "٣", "1000000000"]
SPELLINGS = INTS + ["-1", "1.0", "0x1", "_1", "1__0", "f", "#"]
# Masks that int(tok, 16) reads as positive (the widest has a bit at z = 8),
# and tokens that it rejects or reads as 0 or negative.
HEXES = ["1", "2", "3", "f", "F", "0x5", "0X1f", "+4", "1_0", "07", "٣", "0b1", "ff", "100"]
BAD_HEXES = ["0", "-0", "00", "-1", "-f", "g", "0x", "_1", "1__0", "1.0", "#"]


@st.composite
def host_texts(draw):
    """Host-like texts: a header (its sizes now and then -1 or 0), face
    lines, mask lines or both over ``SPELLINGS`` and ``HEXES`` (mostly of
    the right length), a stray directive or noise, the header mostly on the
    first line."""
    cell = st.one_of(st.sampled_from(INTS), st.sampled_from(SPELLINGS))
    hexes = st.one_of(st.sampled_from(HEXES), st.sampled_from(HEXES + BAD_HEXES))
    size = st.sampled_from(["-1", "0", *INTS[1:]])
    header = "tph " + " ".join(draw(st.lists(size, min_size=3, max_size=3)))
    arity = st.sampled_from([3] * 10 + [2, 4])
    face = arity.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k)).map(lambda t: "f " + " ".join(t))
    mask = st.tuples(arity, st.tuples(cell, cell, hexes, cell)).map(lambda t: "m " + " ".join(t[1][:t[0]]))
    faces = draw(st.lists(draw(st.sampled_from([face, mask, st.one_of(face, mask)])), max_size=10))
    odd = st.sampled_from(["tph 9 9 9", "tph 1 2", "g 0 0 0", "f", "f 0 0 0", "m", "m 0 0 1"] + FILLER)
    lines = draw(st.permutations([*faces, *draw(st.lists(odd, max_size=1))]))
    lines.insert(draw(st.sampled_from([0, 0, 0, min(1, len(lines))])), header)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@st.composite
def mask_texts(draw):
    """A header of sizes 1 to 9, then a few mask lines and now and then a
    face line, their x and y in class: texts whose first bad line, if any,
    is bad by its mask (``HEXES`` and ``BAD_HEXES``) or its z."""
    nx, ny, nz = (draw(st.integers(1, 9)) for _ in range(3))
    cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    line = st.one_of(
        *[st.tuples(cell, st.sampled_from(HEXES + BAD_HEXES)).map(lambda t: "m %d %d %s" % (*t[0], t[1]))] * 4,
        st.tuples(cell, st.integers(0, nz)).map(lambda t: "f %d %d %d" % (*t[0], t[1])),
    )
    return "\n".join([f"tph {nx} {ny} {nz}", *draw(st.lists(line, min_size=1, max_size=6))]) + "\n"


@st.composite
def long_run_hosts(draw):
    """Hosts of up to 3 x 3 (x, y) entries of up to 24 z each, so that their
    written text has runs of many lines."""
    nx, ny, nz = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 24))
    holes = st.sets(st.integers(0, nz - 1), max_size=nz // 2)
    faces = [(x, y, z) for x in range(nx) for y in range(ny) for z in set(range(nz)) - draw(holes)]
    return TripartiteHost((nx, ny, nz), faces)


ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
RESPELL = ["0{}", "00{}", "+{}", "{}"]
HEX_RESPELL = ["0{:x}", "{:X}", "0x{:x}", "0X{:X}", "+{:x}", "{:x}"]
SEP = [" ", " ", "\t", "  ", " \t", "\t "]
PAD = ["", "", " ", "\t", "  "]


def respaced(draw, toks):
    """``toks`` joined by drawn runs of blanks, with drawn blanks around."""
    line = "".join(t + draw(st.sampled_from(SEP)) for t in toks[:-1]) + toks[-1]
    return draw(st.sampled_from(PAD)) + line + draw(st.sampled_from(PAD))


@st.composite
def benign_edit(draw, lines):
    """Edits ``lines`` (a host's text, header first) in place without
    changing the host it parses to: a run broken by a comment or a blank
    line; a coordinate or mask of one line spelled another way (``7`` and
    ``07``, Arabic-Indic digits, ``ff`` and ``0xFF``); or tabs, double
    spaces and trailing blanks."""
    at = draw(st.integers(1, max(1, len(lines) - 1)))
    kind = draw(st.sampled_from(["break", "respell", "space"]))
    if kind == "break":
        lines.insert(at, draw(st.sampled_from(FILLER)))
        return
    toks = lines[at].split() if at < len(lines) else []
    if len(toks) != 4 or toks[0] not in ("f", "m"):
        return
    if kind == "respell":
        i = draw(st.integers(1, 3))
        if toks[0] == "m" and i == 3:
            spelled = draw(st.sampled_from(HEX_RESPELL)).format(int(toks[3], 16))
        else:
            spelled = draw(st.sampled_from(RESPELL)).format(int(toks[i]))
        toks[i] = spelled.translate(ARABIC) if draw(st.booleans()) else spelled
        lines[at] = " ".join(toks)
    else:
        lines[at] = respaced(draw, toks)


@st.composite
def bad_edit(draw, lines, nz):
    """Makes one ``f`` or ``m`` line of ``lines`` malformed, mostly a mask
    line or a face line inside a run: by its z or mask or its shape, and
    now and then its x as well; or copies a few such lines before the
    header.  Returns the number of the first malformed line."""
    entries = [i for i, line in enumerate(lines) if line.split()[:1] in (["f"], ["m"])]
    if not entries or draw(st.integers(0, 5)) == 0:
        j = draw(st.integers(0, max(0, len(entries) - 1)))
        lines[0:0] = [lines[i] for i in entries[j:j + draw(st.integers(1, 4))]] or ["f 0 0 0"]
        return 1
    inside = [
        i for i in entries
        if lines[i][0] == "m" or lines[i - 1].rpartition(" ")[0] == lines[i].rpartition(" ")[0]
    ]
    at = draw(st.sampled_from(inside or entries))
    toks = lines[at].split()
    last = [  # an extra token, or none
        [toks[3], "0"], [toks[3], "#"], [], [""], [f"{toks[3]}\t0"],
    ]
    if toks[0] == "f":  # z out of class or not an integer
        last += [[str(nz)], ["-1"], ["z"], ["1.0"], ["0x1"]]
    else:  # a bit out of class, a mask not positive, or not hexadecimal
        last += [[f"{1 << nz:x}"], ["0"], ["-1"], ["-" + toks[3]], ["g"], ["0x"], ["1.0"]]
    x = draw(st.sampled_from([toks[1]] * 3 + ["-1", "q"]))
    lines[at] = " ".join([toks[0], x, toks[2], *draw(st.sampled_from(last))])
    return at + 1


# Line ends that str.splitlines honours besides "\n" and "\r\n"
ODD_ENDS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def run_shaped_texts(draw):
    """A host's text, often with long runs of face lines, with benign edits
    and, most of the time, one malformed line among them; CRLF line ends
    now and then.
    A few lines, inside a run or at its end, end otherwise: in an end that
    ``str.splitlines`` honours besides ``\\n`` and ``\\r\\n``, or in a lone
    ``\\n`` in a CRLF text; now and then the last line has no end.  Returns
    the text and the first malformed line's number, or None."""
    host = draw(long_run_hosts())
    lines = draw(host_lines(host))
    for _ in range(draw(st.integers(0, 6))):
        draw(benign_edit(lines))
    first = draw(bad_edit(lines, host.n_z)) if draw(st.integers(0, 3)) else None
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [end] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        ends[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(["\n", *ODD_ENDS]))
    if draw(st.integers(0, 3)) == 0:
        ends[-1] = ""
    text = "".join(map(str.__add__, lines, ends))
    if first is not None:  # a "\r" end before an empty line merges with its "\n"
        first = len("".join(map(str.__add__, lines[:first - 1], ends)).splitlines()) + 1
    return text, first


class TestParseHostMatchesReference:
    # parse_host converts each distinct token once; every value, spelling,
    # message and line number must be those of one int() per token.
    @settings(max_examples=300, deadline=None)
    @given(host_texts())
    def test_same_host_or_same_error(self, text):
        assert outcome(parse_host, text) == outcome(reference_parse_host, text)

    @settings(max_examples=200, deadline=None)
    @given(mask_texts())
    def test_mask_lines_same_host_or_same_error(self, text):
        assert outcome(parse_host, text) == outcome(reference_parse_host, text)

    # runs of face lines and mask lines, broken, respelled, respaced,
    # otherwise ended or malformed, read as the reference reads them
    @settings(max_examples=300, deadline=None)
    @given(run_shaped_texts())
    def test_run_shaped_text(self, case):
        text, _ = case
        assert outcome(parse_host, text) == outcome(reference_parse_host, text)


@st.composite
def one_bad_line(draw):
    """A host's text with one malformed line inserted, now and then before
    its header, and now and then followed by a second malformed line at the
    end; returns the text and the inserted line's number."""
    host = draw(hosts())
    nx, ny, nz = host.class_sizes
    bad = draw(st.sampled_from([
        f"f {nx} 0 0", f"f 0 {ny} 0", f"f 0 0 {nz}", "f -1 0 0", "f 0 -1 0",  # out of class
        f"m {nx} 0 1", f"m 0 {ny} 1", f"m 0 0 {1 << nz:x}", f"m 0 0 {(1 << nz) * 7:X}",
        "f 0 0 z", "f x 0 0", "f 0 1.0 0", "f 0 0 0x1",  # not an integer
        "m 0 0 g", "m 0 0 0x", "m 0 0 1.0", "m x 0 1",  # not hexadecimal, or x not an integer
        "m 0 0 0", "m 0 0 -0", "m 0 0 -1", "m 0 0 -0x10",  # a mask not positive
        "f 0 0", "f 0 0 0 0", "f", "m 0 0", "m 0 0 1 1", "m",  # wrong length
        "g 0 0 0", "tph 1 1 1",  # unknown directive, second header
    ]))
    lines = draw(host_lines(host))
    at = draw(st.integers(0 if bad[0] != "t" else 1, len(lines)))
    lines.insert(at, bad)
    lines += draw(st.sampled_from([[], ["f 0 0"], ["f 0 0 -1"], ["m 0 0 0"]]))
    return "\n".join(lines) + "\n", at + 1


class TestFirstBadLine:
    # the error names the first malformed line in file order, whatever is
    # wrong with it or with any later line
    @settings(max_examples=300, deadline=None)
    @given(one_bad_line())
    def test_names_the_inserted_line(self, case):
        text, lineno = case
        with pytest.raises(FormatError, match=rf"^line {lineno}: "):
            parse_host(text)

    @settings(max_examples=300, deadline=None)
    @given(run_shaped_texts())
    def test_names_the_bad_line_of_a_run(self, case):
        text, lineno = case
        assume(lineno is not None)
        with pytest.raises(FormatError, match=rf"^line {lineno}: "):
            parse_host(text)

    @settings(max_examples=100, deadline=None)
    @given(hosts(), st.sampled_from(["-1", "-2", "x", "1.5"]), st.integers(0, 2))
    def test_bad_header_size_names_the_header(self, host, size, i):
        header, *body = write_host(host).splitlines()
        toks = header.split()
        toks[1 + i] = size
        with pytest.raises(FormatError, match=r"^line 1: "):
            parse_host("\n".join([" ".join(toks), *body, "f 0 0"]) + "\n")


# Directives of all three formats, comment markers, non-numeric garbage,
# small integers and large ones (headers are never built in proportion to
# their counts, so a huge one stays cheap).
TOKENS = st.one_of(
    st.sampled_from(["tph", "f", "m", "tg", "cert", "v1", "disk", "hf", "#", "#x"]),
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
