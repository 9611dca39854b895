"""Property tests of the flat-file parsers: round-trips and token fuzzing."""

import itertools
import re

import pytest
from conftest import F_LINE_REFUSED
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homeofind.core import ThreeGraph, TripartiteHost
from homeofind.harness import gen_random_host
from homeofind.io import (
    FormatError,
    load_target,
    parse_certificate,
    parse_host,
    parse_threegraph,
    write_host,
    write_threegraph,
)
from oracles import table


@st.composite
def hosts(draw):
    sizes = tuple(draw(st.integers(0, 4)) for _ in range(3))
    cells = list(itertools.product(*map(range, sizes)))
    faces = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return TripartiteHost(sizes, frozenset(faces))


@st.composite
def dense_hosts(draw):
    """Hosts of sizes 1 to 4 in which each (x, y, z) is a face or not by a
    drawn coin: long runs of masks of several bits."""
    sizes = tuple(draw(st.integers(1, 4)) for _ in range(3))
    cells = list(itertools.product(*map(range, sizes)))
    coins = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return TripartiteHost(sizes, itertools.compress(cells, coins))


@st.composite
def wide_hosts(draw):
    """Hosts of a few faces whose n_z sits on either side of each word
    width's edge, 64 included."""
    sizes = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.sampled_from([8, 9, 16, 17, 32, 33, 64, 65])))
    cell = st.tuples(*(st.integers(0, n - 1) for n in sizes))
    return TripartiteHost(sizes, frozenset(draw(st.lists(cell, max_size=12))))


@st.composite
def written_hosts(draw):
    """``gen_random_host`` hosts of sizes 1 to 5 and of a drawn density
    (full rows, rows with gaps and empty ones), their n_z drawn from each
    word width, its edges included."""
    nz = draw(st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 60, 63, 64]))
    sizes = (draw(st.integers(1, 5)), draw(st.integers(1, 5)), nz)
    return gen_random_host(*sizes, draw(st.sampled_from([0.02, 0.5, 1])), draw(st.integers(0, 2**32)))


@st.composite
def threegraphs(draw):
    v = draw(st.integers(0, 7))
    triples = list(itertools.combinations(range(v), 3))
    faces = draw(st.lists(st.sampled_from(triples), unique=True)) if triples else []
    return ThreeGraph(v, frozenset(faces))


FILLER = ["", " ", "\t", "# a comment", "  #indented 1 2 3", "#"]


def word_digits(nz):
    """The digits of one written mask word below ``2**nz`` (nz <= 64): two
    per byte of the smallest of 1, 2, 4 and 8 bytes that holds nz bits."""
    return 2 * next(w for w in (1, 2, 4, 8) if nz <= 8 * w)


def spelled(draw, masks, nz):
    """A run's HEX part, drawn in either spelling: words of ``word_digits``
    digits, zeros in front, as ``write_host`` writes them, or each mask
    without leading zeros."""
    width = word_digits(nz) if nz <= 64 and draw(st.booleans()) else 0
    return " ".join(f"{m:0{width}x}" for m in masks)


@st.composite
def host_lines(draw, host):
    """The lines of a text of ``host``, header first: its ``write_host``
    text; one in which each (x, y) entry is drawn as its ``m`` line or as
    two ``m`` lines that OR to its mask (its lowest bit and the rest); or
    one in which each run that ``write_host`` writes is split into runs at
    drawn points, now and then followed by a run over its entries from a
    drawn one on, which holds their lowest bits while the split runs hold
    the rest.  Each line's masks are drawn as words or without leading
    zeros (``spelled``)."""
    kind = draw(st.sampled_from(["written", "entries", "runs"]))
    written = write_host(host).splitlines()
    lines = written[:1]
    nz = host.n_z
    if kind == "entries":
        for key, mask in sorted(table(host).items()):
            x, y = divmod(key, host.n_y)
            low = mask & -mask
            parts = draw(st.sampled_from([[mask], [low, mask], [mask ^ low or mask, low]]))
            lines += [f"m {x} {y} {spelled(draw, [part], nz)}" for part in parts]
        return lines
    for line in written[1:]:
        _, x, y, *hexes = line.split()
        masks = [int(h, 16) for h in hexes]
        if kind == "written":
            lines.append(f"m {x} {y} {spelled(draw, masks, nz)}")
            continue
        lows = []
        if draw(st.booleans()):
            i = draw(st.integers(0, len(masks) - 1))
            lows = [(i, [m & -m for m in masks[i:]])]
            for t, low in enumerate(lows[0][1], i):
                masks[t] = masks[t] ^ low or masks[t]
        cuts = sorted(draw(st.sets(st.integers(1, len(masks) - 1), max_size=3)) if len(masks) > 1 else [])
        for i, part in [(i, masks[i:j]) for i, j in itertools.pairwise([0, *cuts, len(masks)])] + lows:
            lines.append(f"m {x} {int(y) + i} {spelled(draw, part, nz)}")
    return lines


@st.composite
def noisy(draw, text):
    """``text`` with comments, blank lines, mixed whitespace, CRLF line
    ends, shuffled mask lines and repeated mask lines mixed in."""
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


def one_mask_lines(text):
    """The number and tokens of each line of ``text``, a run line
    ``m x y HEX0 ... HEXk-1`` as its k lines ``m x y+i HEXi`` on its
    number, each made once the one before it has been read."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        tok = raw.split()
        if tok[:1] != ["m"] or len(tok) <= 4:
            yield lineno, tok
            continue
        yield lineno, tok[:4]
        for i, hexed in enumerate(tok[4:], 1):
            yield lineno, ["m", tok[1], str(int(tok[2]) + i), hexed]


def reference_parse_host(text):
    """``parse_host`` written plainly: one pass, one ``int()`` per token read,
    each line checked as it is read (header sizes on the header line; an
    ``f`` line refused whatever it holds; x, then y, then the mask on an
    ``m`` line, x and y first with ``int()`` and then against their class,
    the mask with ``int(tok, 16)`` and then for being positive and below
    ``1 << n_z``)."""
    sizes = None
    faces = []
    for lineno, tok in one_mask_lines(text):
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] == "f":
            raise FormatError(f"line {lineno}: {F_LINE_REFUSED}")
        if tok[0] not in ("tph", "m"):
            raise FormatError(f"line {lineno}: unknown directive {tok[0]!r}")
        if tok[0] == "tph" and sizes is not None:
            raise FormatError(f"line {lineno}: duplicate tph header")
        if tok[0] == "m" and sizes is None:
            raise FormatError(f"line {lineno}: mask before tph header")
        if len(tok) != 4:
            shape = {"tph": "tph nx ny nz", "m": "m x y HEX"}[tok[0]]
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
            for name, t, n in zip("xy", tok[1:], sizes):
                c = int(t)
                if not 0 <= c < n:
                    raise ValueError(f"{name} = {c} is outside [0, {n})")
                face.append(c)
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
    """Host-like texts: a header (its sizes now and then -1 or 0), mask
    lines over ``SPELLINGS`` and ``HEXES`` (mostly of the right length),
    now and then a face line among them, a stray directive or noise, the
    header mostly on the first line."""
    cell = st.one_of(st.sampled_from(INTS), st.sampled_from(SPELLINGS))
    hexes = st.one_of(st.sampled_from(HEXES), st.sampled_from(HEXES + BAD_HEXES))
    size = st.sampled_from(["-1", "0", *INTS[1:]])
    header = "tph " + " ".join(draw(st.lists(size, min_size=3, max_size=3)))
    arity = st.sampled_from([3] * 10 + [2, 4])
    face = arity.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k)).map(lambda t: "f " + " ".join(t))
    mask = st.tuples(arity, st.tuples(cell, cell, hexes, cell)).map(lambda t: "m " + " ".join(t[1][:t[0]]))
    body = draw(st.lists(mask, max_size=10))
    if draw(st.integers(0, 3)) == 0:
        body.insert(draw(st.integers(0, len(body))), draw(face))
    odd = st.sampled_from(["tph 9 9 9", "tph 1 2", "g 0 0 0", "f", "f 0 0 0", "m", "m 0 0 1"] + FILLER)
    lines = draw(st.permutations([*body, *draw(st.lists(odd, max_size=1))]))
    lines.insert(draw(st.sampled_from([0, 0, 0, min(1, len(lines))])), header)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@st.composite
def mask_texts(draw):
    """A header of sizes 1 to 9, then a few mask lines and now and then a
    face line, their x and y in class: texts whose first bad line, if any,
    is bad by its mask (``HEXES`` and ``BAD_HEXES``) or is a face line."""
    nx, ny, nz = (draw(st.integers(1, 9)) for _ in range(3))
    cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    line = st.one_of(
        *[st.tuples(cell, st.sampled_from(HEXES + BAD_HEXES)).map(lambda t: "m %d %d %s" % (*t[0], t[1]))] * 4,
        st.tuples(cell, st.integers(0, nz)).map(lambda t: "f %d %d %d" % (*t[0], t[1])),
    )
    return "\n".join([f"tph {nx} {ny} {nz}", *draw(st.lists(line, min_size=1, max_size=6))]) + "\n"


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
    changing the host it parses to: a comment or a blank line put between
    two lines; a coordinate or mask of one line spelled another way (``7``
    and ``07``, Arabic-Indic digits, ``ff`` and ``0xFF``); or tabs, double
    spaces and trailing blanks."""
    at = draw(st.integers(1, max(1, len(lines) - 1)))
    kind = draw(st.sampled_from(["break", "respell", "space"]))
    if kind == "break":
        lines.insert(at, draw(st.sampled_from(FILLER)))
        return
    toks = lines[at].split() if at < len(lines) else []
    if len(toks) < 4 or toks[0] != "m":
        return
    if kind == "respell":
        i = draw(st.integers(1, len(toks) - 1))
        if i >= 3:
            spelled = draw(st.sampled_from(HEX_RESPELL)).format(int(toks[i], 16))
        else:
            spelled = draw(st.sampled_from(RESPELL)).format(int(toks[i]))
        toks[i] = spelled.translate(ARABIC) if draw(st.booleans()) else spelled
        lines[at] = " ".join(toks)
    else:
        lines[at] = respaced(draw, toks)


@st.composite
def bad_edit(draw, lines, ny, nz):
    """Makes one ``m`` line of ``lines`` malformed: by its mask or its
    shape, now and then its x as well, or by turning it into an ``f`` line;
    or copies a few such lines before the header.  Returns the number of the
    first malformed line."""
    entries = [i for i, line in enumerate(lines) if line.split()[:1] == ["m"]]
    if not entries or draw(st.integers(0, 5)) == 0:
        j = draw(st.integers(0, max(0, len(entries) - 1)))
        lines[0:0] = [lines[i] for i in entries[j:j + draw(st.integers(1, 4))]] or ["m 0 0 1"]
        return 1
    at = draw(st.sampled_from(entries))
    toks = lines[at].split()
    digits = word_digits(nz)
    last = [  # an extra mask that is 0, not hexadecimal or out of class, a run past its row, or no mask
        [toks[3], "0"], [toks[3], "#"], [*toks[3:], "g"], [toks[3], f"{1 << nz:x}"], [toks[3]] * (ny + 1),
        [], [""], [f"{toks[3]}\t0"],
        # a word that is 0 or out of class after a first mask
        [toks[3], "0" * digits], [toks[3], f"{1 << nz:0{digits}x}"],
        # a bit out of class, a mask not positive, or not hexadecimal
        [f"{1 << nz:x}"], ["0"], ["-1"], ["-" + toks[3]], ["g"], ["0x"], ["1.0"],
    ]
    if draw(st.integers(0, 5)) == 0:  # a well-formed mask on an f line
        lines[at] = " ".join(["f", *toks[1:]])
        return at + 1
    x = draw(st.sampled_from([toks[1]] * 3 + ["-1", "q"]))
    lines[at] = " ".join([toks[0], x, toks[2], *draw(st.sampled_from(last))])
    return at + 1


# Line ends that str.splitlines honours besides "\n" and "\r\n"
ODD_ENDS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def run_shaped_texts(draw):
    """A host's text with benign edits and, most of the time, one malformed
    line among them; CRLF line ends now and then.
    A few lines end otherwise: in an end that
    ``str.splitlines`` honours besides ``\\n`` and ``\\r\\n``, or in a lone
    ``\\n`` in a CRLF text; now and then the last line has no end.  Returns
    the text and the first malformed line's number, or None."""
    host = draw(hosts())
    lines = draw(host_lines(host))
    for _ in range(draw(st.integers(0, 6))):
        draw(benign_edit(lines))
    first = draw(bad_edit(lines, host.n_y, host.n_z)) if draw(st.integers(0, 3)) else None
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
    # parse_host must give the outcome of one int() per token: every value,
    # spelling, message and line number.
    @settings(max_examples=300, deadline=None)
    @given(host_texts())
    def test_same_host_or_same_error(self, text):
        assert outcome(parse_host, text) == outcome(reference_parse_host, text)

    @settings(max_examples=200, deadline=None)
    @given(mask_texts())
    def test_mask_lines_same_host_or_same_error(self, text):
        assert outcome(parse_host, text) == outcome(reference_parse_host, text)

    # runs split and overlapping over rows that are mostly full, read as
    # their one-mask lines are
    @settings(max_examples=100, deadline=None)
    @given(st.data(), dense_hosts())
    def test_runs_of_dense_rows(self, data, host):
        text = "\n".join(data.draw(host_lines(host))) + "\n"
        assert parse_host(text) == reference_parse_host(text) == host

    # written texts broken, respelled, respaced, otherwise ended or
    # malformed, read as the reference reads them
    @settings(max_examples=300, deadline=None)
    @given(run_shaped_texts())
    def test_run_shaped_text(self, case):
        text, _ = case
        assert outcome(parse_host, text) == outcome(reference_parse_host, text)

    # masks of every word width, split, overlapping and in either spelling
    @settings(max_examples=100, deadline=None)
    @given(st.data(), wide_hosts())
    def test_runs_of_wide_masks(self, data, host):
        text = "\n".join(data.draw(host_lines(host))) + "\n"
        assert parse_host(text) == reference_parse_host(text) == host

    # write_host's own text at every word width, read whole
    @settings(max_examples=100, deadline=None)
    @given(written_hosts())
    def test_written_text(self, host):
        text = write_host(host)
        parsed = parse_host(text)
        assert parsed == reference_parse_host(text) == host
        assert list(table(parsed)) == list(table(host))

    # lines spelled as, or nearly as, written words, and runs of words that
    # start below an entry read before them: each gives the table, or the
    # error, of one int() per token
    @pytest.mark.parametrize("text, expected", [
        ("tph 1 3 5\nm 0 0 01 00 02\n", "line 2: mask 0 names no face"),  # a zero word
        ("tph 1 3 5\nm 0 0 01 20 02\n", "line 2: z = 5 is outside [0, 5)"),  # a word of 2**nz
        ("tph 1 2 12\nm 0 0 0001 1000\n", "line 2: z = 12 is outside [0, 12)"),
        ("tph 2 3 5\nm 0 1 01 02 03\n", "line 2: y = 3 is outside [0, 3)"),  # past the row's end
        # a run that starts below an entry read before it: ORed where it
        # overlaps one, and new where it does not
        ("tph 1 3 5\nm 0 2 01\nm 0 0 02 02 04\n", {0: 2, 1: 2, 2: 5}),
        ("tph 1 3 5\nm 0 1 01\nm 0 0 02 04\n", {0: 2, 1: 5}),
        ("tph 2 3 5\nm 1 0 01\nm 0 1 02 04\n", {1: 2, 2: 4, 3: 1}),
        ("tph 1 2 5\nm 0 0 01\t02\n", {0: 1, 1: 2}),  # a tab between words
        ("tph 1 2 5\nm 0 0 01 2\n", {0: 1, 1: 2}),  # a word a digit short, or long
        ("tph 1 2 5\nm 0 0 01 002\n", {0: 1, 1: 2}),
        ("tph 1 2 12\nm 0 0 001 00002\n", {0: 1, 1: 2}),
        ("tph 1 2 12\nm 0 0 000102 03\n", {0: 0x102, 1: 3}),  # its blank out of place
        ("tph 1 2 12\nm 0 0 0_01 0002\n", {0: 1, 1: 2}),  # "_" or "0x" inside a word
        ("tph 1 2 12\nm 0 0 0x01 0002\n", {0: 1, 1: 2}),
        ("tph 1 2 12\nm 0 0 00AB 0002\n", {0: 0xAB, 1: 2}),  # upper case
        # written texts but for one thing, each read line by line
        ("tph 1 3 5\nm 0 0 01 02\nm 0 1 04\n", {0: 1, 1: 6}),  # runs that overlap
        ("tph 2 3 5\nm 1 0 01\nm 0 0 02\n", {0: 2, 3: 1}),  # runs out of order
        ("tph 1 3 5\nm 1 0 01\n", "line 2: x = 1 is outside [0, 1)"),
        ("tph 1 1 5\nm 0 0 01 02\n", "line 2: y = 1 is outside [0, 1)"),
        ("tph 1 1 65\nm 0 0 01\n", {0: 1}),  # n_z past 64
        ("tph 1 1 5\nm 0 0 01", {0: 1}),  # no final line end, or two
        ("tph 1 1 5\nm 0 0 01\n\n", {0: 1}),
        ("tph 1 1 5\nm 0 0 01\x0c\n", {0: 1}),  # a line end that splitlines honours
        ("tph 1 1 5\nm \x0c0 0 01\n", "line 2: expected 'm x y HEX'"),
        ("tph 1 2 5\nm +0 0 01\nm 0 1 02\n", {0: 1, 1: 2}),  # a coordinate spelled with a sign, or in other digits
        ("tph 1 2 5\nm ٠ 1 01\n", {1: 1}),
        ("tph 1 1 ٥\nm 0 0 01\n", {0: 1}),
        ("tph 1 1 5 7\nm 0 0 01\n", "line 1: expected 'tph nx ny nz'"),
        ("tph  1 1 5\nm 0 0 01\n", {0: 1}),  # a double blank
        ("tph 1 1 5\nm 0  0 01\n", {0: 1}),
        ("tph 1 1 5\nm 0 0\n", "line 2: expected 'm x y HEX'"),
        ("tph 1 1 5\nM 0 0 01\n", "line 2: unknown directive 'M'"),
        ("tph 1 1 5\nm 0 0 01 \n", {0: 1}),  # a trailing blank
        (f"tph 1 1 5\nm {10 ** 30} 0 01\n", f"line 2: x = {10 ** 30} is outside [0, 1)"),
        ("tph 2 2 2\n", {}),  # no entry
        ("tpx 1 1 5\nm 0 0 01\n", "line 1: unknown directive 'tpx'"),
        ("tph 1 1\nm 0 0 01\n", "line 1: expected 'tph nx ny nz'"),
        ("tph 1 2 12\nm 0 0 \t\t01 0203\n", {0: 1, 1: 0x203}),  # a word's digits short by tabs
    ])
    def test_words_and_near_words(self, text, expected):
        found = outcome(parse_host, text)
        assert found == outcome(reference_parse_host, text)
        assert (found if isinstance(found, str) else table(found)) == expected


@st.composite
def one_bad_line(draw):
    """A host's text with one malformed line inserted, now and then before
    its header, and now and then followed by a second malformed line at the
    end; returns the text and the inserted line's number."""
    host = draw(hosts())
    nx, ny, nz = host.class_sizes
    bad = draw(st.sampled_from([
        f"m {nx} 0 1", f"m 0 {ny} 1", "m -1 0 1", "m 0 -1 1",  # out of class
        f"m 0 0 {1 << nz:x}", f"m 0 0 {(1 << nz) * 7:X}",
        "m 0 0 g", "m 0 0 0x", "m 0 0 1.0", "m x 0 1", "m 0 1.0 1",  # not hexadecimal, or not an integer
        "m 0 0 0", "m 0 0 -0", "m 0 0 -1", "m 0 0 -0x10",  # a mask not positive
        "m 0 0", "m",  # too short
        # a run with a mask not hexadecimal or out of class, or past its row
        "m 0 0 1 g", f"m 0 0 1 {1 << nz:x}", f"m 0 {ny - 1} 1 1",
        "f 0 0 0", "f 0 0", "f",  # a face line, whatever its shape
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
            except FormatError as exc:
                # a reader names a line once, and only a line of its text
                assert not re.match(r"line \d+: line \d+: ", str(exc))
                if named := re.match(r"line (\d+): ", str(exc)):
                    assert 1 <= int(named[1]) <= len(text.splitlines())

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
