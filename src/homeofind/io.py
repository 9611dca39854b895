"""Flat-file formats: 3-graphs, tripartite hosts, certificates.

The builtin targets are the ``.tg`` files in ``homeofind/data``.  Every
serializer writes in a fixed sorted order so that identical inputs produce
byte-identical files.  Lines whose first token starts with ``#`` are
comments; blank lines are skipped and tokens may be separated by any run
of whitespace.  A target's faces are sets, so a repeated ``f`` line is
accepted and counted once.  Every malformed input, a non-integer token
included, raises ``FormatError`` naming the line where one applies: in a
reader's loop over its lines each check raises a plain ``ValueError``, and
the reader's one handler names the line.

A host's text holds its z-mask table (see ``core``) on ``m`` lines: ``m x
y HEX`` sets the faces of one (x, y) entry, HEX being its mask in
hexadecimal, bit z set for the face (x, y, z), and a run ``m x y HEX0
HEX1 ... HEXk-1`` means exactly the k lines ``m x y+i HEXi``, read in order
on its own line number.  ``write_host`` writes, in sorted order, one line
per maximal run of entries (x, y), (x, y + 1), ... of an x row, so a
dense host takes one line per x.  For n_z <= 64 it writes each mask as a
word of W bytes, W the smallest of 1, 2, 4 and 8 that holds n_z bits: 2W
lower-case digits, zeros in front, one blank between words.  Wider masks
are written without leading zeros.  ``parse_host`` reads these lines in
any order, ORing each mask into the entry of its (x, y); they are a host's
only face lines, and an ``f`` line is refused on its line.  Its table's
keys ascend and its masks follow them, as every host's do (see ``core``).  A text spelled exactly
as ``write_host`` spells it is read whole, all its masks in one decode
(see ``parse_host``); any other (a comment, CRLF line ends, n_z > 64,
masks without leading zeros, ``0x``, ``_``, tabs, double blanks, lines
out of order) is read line by line and entry by entry, to the same table
or the same error, and its table is sorted once, at the end, only when a
line opened an entry below one read before.  HEX is read as
``int(HEX, 16)`` reads it, so ``0x``, ``+``, ``_`` and upper case spell a
mask too; a mask that is negative, 0, or has a bit at or above n_z is
refused.  Each line is checked as it is read, its coordinates against the
``tph`` sizes, so the error names the first malformed line in file order,
and a run's error is that of the first of its one-mask lines that would
fail.  Nothing is allocated in proportion to a header's count: not from a
host's ``tph`` sizes, and not from a certificate's ``tg`` count, which is
bounded by the lines that can place its vertices before anything is built
from it.

A certificate's disk lines are laid out by the target's auxiliary graph,
which ``write_certificate`` and ``parse_certificate`` read from the target
(``ThreeGraph.aux_graph``, built once per target object), so a parsed
certificate hands the verifier a target whose graph is already built.

A host's table is bounded by its text: with k (x, y) entries and largest
z = t, it holds at most k * (t + 1) bits, and ``parse_host`` refuses, on
the line that would pass it, a text whose table would exceed
``TABLE_BITS_PER_CHAR`` (64) bits per character of text plus a floor of
``TABLE_BITS_FLOOR`` (2**23) bits, before any mask that large exists: a
HEX token holds at most 4 bits per character of its own text.  A mask
wider than any before is checked against the bound where it is read.  An
entry that a mask opens is checked too, but only when (text length // 2)
times n_z exceeds the bound: a table has no more entries than the text has
mask tokens, each a character and the blank before it, and no mask
reaches 2**n_z, so otherwise no table the text spells can pass it.  A
written text never passes the bound, so it is read whole unchecked: n_z
<= 64, and each entry takes at least three characters.  A dense n = 60
host holds about 3.5 bits per character.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from importlib import resources
from itertools import chain, count, pairwise
from operator import add, le

from .core import (
    Embedding,
    HomeomorphCertificate,
    ThreeGraph,
    TripartiteHost,
)


class FormatError(ValueError):
    pass


def _content_lines(text: str, maxsplit: int = -1):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split(None, maxsplit)


def _target_line(tok: list[str], header: int | None, faces: list) -> int:
    """One ``tg`` or ``f`` line of a target or certificate file: adds a face
    to ``faces`` or reads the header, and returns the header.  A bad line,
    count or face (``ThreeGraph`` checks each as its line is read) raises a
    ``ValueError``, which the caller's handler names the line of."""
    if tok[0] == "tg":
        if header is not None:
            raise ValueError("duplicate tg header")
        if len(tok) != 2:
            raise ValueError("expected 'tg n'")
        return ThreeGraph(int(tok[1]), frozenset()).vertex_count
    if header is None:
        raise ValueError("face before tg header")
    if len(tok) != 4:
        raise ValueError("expected 'f a b c'")
    face = (int(tok[1]), int(tok[2]), int(tok[3]))
    ThreeGraph(header, frozenset([face]))
    faces.append(face)
    return header


def _target(header: int | None, faces: list) -> ThreeGraph:
    if header is None:
        raise FormatError("missing tg header")
    return ThreeGraph(header, frozenset(faces))


def parse_threegraph(text: str) -> ThreeGraph:
    header = None
    faces = []
    try:
        for lineno, tok in _content_lines(text):
            if tok[0] not in ("tg", "f"):
                raise ValueError(f"unknown directive {tok[0]!r}")
            header = _target_line(tok, header, faces)
    except ValueError as exc:  # a malformed line, a token that is not an integer, or a bad target
        raise FormatError(f"line {lineno}: {exc}") from exc
    return _target(header, faces)


def write_threegraph(h: ThreeGraph) -> str:
    lines = [f"tg {h.vertex_count}"]
    lines += [f"f {a} {b} {c}" for a, b, c in h.sorted_faces()]
    return "\n".join(lines) + "\n"


# parse_host's bound on a host table: bits per character of text, and a floor
TABLE_BITS_PER_CHAR = 64
TABLE_BITS_FLOOR = 1 << 23


def _fits(keys: int, width: int, budget: int) -> int:
    """``width``, once a table of ``keys`` entries of up to ``width`` bits
    is found within ``budget``."""
    if keys * width > budget:
        raise ValueError(
            f"a host table of {keys} (x, y) masks of up to {width} bits would exceed "
            f"its budget of {budget} bits ({TABLE_BITS_PER_CHAR} per character of "
            f"text plus {TABLE_BITS_FLOOR})"
        )
    return width


def _width(mask: int, nz: int) -> int:
    """The bit length of an ``m`` line's mask, refused unless it is positive
    and below ``2**nz``."""
    if mask <= 0:
        raise ValueError("mask is negative" if mask else "mask 0 names no face")
    if mask.bit_length() > nz:
        raise ValueError(f"z = {mask.bit_length() - 1} is outside [0, {nz})")
    return mask.bit_length()


def _coordinate(name: str, tok: str, n: int) -> int:
    """``int(tok)``, refused outside [0, n) as coordinate ``name``."""
    val = int(tok)
    if not 0 <= val < n:
        raise ValueError(f"{name} = {val} is outside [0, {n})")
    return val


def _word(nz: int) -> tuple[str, int] | None:
    """The ``struct`` code and byte width W of a written mask word for masks
    below ``2**nz``: the smallest of 1, 2, 4 and 8 bytes that holds nz bits,
    or None when nz > 64."""
    for code, w in (("B", 1), ("H", 2), ("I", 4), ("Q", 8)):
        if nz <= 8 * w:
            return code, w
    return None


def _written_table(text: str) -> tuple[tuple[int, int, int], Iterable[int], tuple[int, ...]] | None:
    """The sizes, keys and masks of a text spelled exactly as ``write_host``
    spells a host of n_z <= 64, read as one piece, or None for any other
    text (see ``parse_host``).  The header is read first, so a text of
    n_z > 64 is declined before its body is split."""
    if not text.endswith("\n"):
        return None
    head, _, body = text.partition("\n")
    tph, *sizes = head.split(" ")
    if tph != "tph" or not "".join(sizes).isdecimal():
        return None
    # not three sizes, an empty token or one past int()'s digit limit
    try:
        nx, ny, nz = sizes = tuple(map(int, sizes))
    except ValueError:
        return None
    if nz > 64:
        return None
    # the last line is the empty one after the final "\n"; a line of fewer
    # than four tokens leaves fewer than four columns
    *rows, _ = [line.split(" ", 3) for line in body.split("\n")]
    columns = list(zip(*rows))
    if len(columns) != 4:
        return None
    ms, xs, ys, hexes = columns
    if ms.count("m") != len(ms) or not "".join([*xs, *ys]).isdecimal():
        return None
    # a coordinate past int()'s digit limit, or a HEX part not hexadecimal
    try:
        xs, ys = list(map(int, xs)), list(map(int, ys))
        code, w = _word(nz)
        joined, step = " ".join(hexes), 2 * w + 1
        packed = bytes.fromhex(joined)
    except ValueError:
        return None
    # blanks on every word's slot and 2kW hexadecimal digits elsewhere put
    # each line's HEX part, which a blank ends, on a word boundary too
    k, rest = divmod(len(joined) + 1, step)
    if rest or joined[2 * w::step].count(" ") != k - 1 or len(packed) != k * w:
        return None
    masks = struct.unpack(f">{k}{code}", packed)
    runs = [(len(hexed) + 1) // step for hexed in hexes]
    starts = [x * ny + y for x, y in zip(xs, ys)]
    ends = list(map(add, starts, runs))
    # masks in class, each run inside its row, runs ascending apart
    if (
        0 in masks or max(masks) >> nz or max(xs) >= nx
        or max(map(add, ys, runs)) > ny or not all(map(le, ends, starts[1:]))
    ):
        return None
    # the runs' keys, read only when the table has a gap
    return sizes, chain.from_iterable(map(range, starts, ends)), masks


def parse_host(text: str) -> TripartiteHost:
    """Parse a ``.tph`` host, whole when it is spelled as ``write_host``
    writes it, else in one pass over its lines, checking each line as it
    is read: a ``FormatError`` names the first malformed line.

    After the header, an ``m x y HEX0 ... HEXk-1`` line (k >= 1) reads as
    the k lines ``m x y+i HEXi`` on its line's number, each ORing the mask
    ``int(HEXi, 16)`` into the table entry of its (x, y + i).  x and y are
    each ``int(token)``, checked against its class, x then y, so no line
    aliases another's entry.  A mask that is not positive, or has a bit at
    or above n_z, is refused, and so is an ``f`` line, which only a
    target's text holds.

    A written text is read as one piece: a ``tph nx ny nz`` header (n_z <=
    64), then ``m x y W0 ... Wk-1`` lines, each with x < n_x and y + k <=
    n_y, its words 2W hexadecimal digits one blank apart, its tokens one
    blank apart and its sizes and coordinates decimal, its run above
    the one before, and one ``\\n`` after every line.  Its header is read
    first, so a text of n_z > 64 is passed on before its body is split.
    Its masks take one ``bytes.fromhex`` over the joined HEX parts and one
    ``struct.unpack``, and are checked with one ``0 in`` and one ``max``;
    the unpacked tuple is the table's ``masks`` as it stands, its runs
    ascend, so the table needs no sort, and its keys are the ``range`` of
    a full table or, with a gap, the runs' flat indices.  Besides the
    table, that reader holds for a moment about four times the text: its
    tokens, its coordinates, the joined HEX parts and their bytes.

    Any other text (a comment, CRLF line ends, masks without leading
    zeros, n_z > 64, a line out of order) is read line by line, entry by
    entry, to the table or the error of its one-mask lines, which it ORs
    into a ``dict`` by flat index: a mask is checked only when it is not
    positive or wider than any before, and an entry it opens is checked
    against the bound only when (mask tokens the text can hold) * n_z
    exceeds it.  Every entry read so far lies below a high-water mark;
    only when some line opened an entry below it is the dict sorted, once,
    at the end, before it is handed over as the table's keys and masks
    (see ``TripartiteHost._from_table``), so that its keys ascend.
    """
    written = _written_table(text)
    if written:
        return TripartiteHost._from_table(*written)
    sizes = None
    table: dict[int, int] = {}
    budget = TABLE_BITS_PER_CHAR * len(text) + TABLE_BITS_FLOOR
    try:
        # x, y and the HEX part of a run line; a header is split in full
        for lineno, tok in _content_lines(text, 3):
            if tok[0] == "tph":
                tok = " ".join(tok).split()
                if sizes is not None:
                    raise ValueError("duplicate tph header")
                if len(tok) != 4:
                    raise ValueError("expected 'tph nx ny nz'")
                nx, ny, nz = sizes = TripartiteHost(map(int, tok[1:]), ()).class_sizes
                # a mask token takes a character and the blank before it;
                # every entry read so far lies below high
                get, top, high, checked = table.get, 0, 0, len(text) // 2 * nz > budget
                disordered = False  # whether a line opened an entry below high
            elif tok[0] == "f":
                raise ValueError("'f' lines belong to targets; a host's faces are 'm x y HEX' lines")
            elif tok[0] != "m":
                raise ValueError(f"unknown directive {tok[0]!r}")
            elif sizes is None:
                raise ValueError("mask before tph header")
            elif len(tok) < 4:
                raise ValueError("expected 'm x y HEX'")
            else:
                x, y = _coordinate("x", tok[1], nx), _coordinate("y", tok[2], ny)
                start = x * ny + y
                hexes = tok[3].split()
                for y, key, hexed in zip(count(y), count(start), hexes):
                    if y >= ny:
                        raise ValueError(f"y = {y} is outside [0, {ny})")
                    entry = get(key)
                    if entry is None:
                        disordered |= key < high
                        if checked:  # a new entry may grow as wide as any mask
                            _fits(len(table) + 1, top, budget)
                    mask = int(hexed, 16)
                    if mask <= 0 or mask.bit_length() > top:
                        top = _fits(len(table) + (entry is None), _width(mask, nz), budget)
                    table[key] = mask if entry is None else entry | mask
                high = max(high, start + len(hexes))
    except ValueError as exc:  # a malformed line, token, header size or coordinate, or over budget
        raise FormatError(f"line {lineno}: {exc}") from exc
    if sizes is None:
        raise FormatError("missing tph header")
    if disordered:
        table = dict(sorted(table.items()))
    return TripartiteHost._from_table(sizes, table, tuple(table.values()))


def write_host(host: TripartiteHost) -> str:
    """One ``m x y HEX0 HEX1 ...`` line per maximal run of table entries
    (x, y), (x, y + 1), ... of an x row, in table order, which is sorted
    as a host's keys ascend: HEXi is the z-mask of (x, y + i) in
    lower-case hexadecimal.  For n_z <= 64 each mask is a word of W bytes,
    W the smallest of 1, 2, 4 and 8 that holds n_z bits, written as its 2W
    digits, zeros in front: one ``struct.pack(...).hex(" ", W)`` per run.
    Wider masks are written without leading zeros."""
    ny, keys, values = host.n_y, host.keys, host.masks
    word = _word(host.n_z)

    def run(i: int, j: int) -> str:
        if word:
            return struct.pack(f">{j - i}{word[0]}", *values[i:j]).hex(" ", word[1])
        return " ".join(f"{mask:x}" for mask in values[i:j])

    # a run starts at a key that does not follow the one before, or opens a row
    starts = [i for i, (prev, key) in enumerate(zip([-2, *keys], keys)) if key != prev + 1 or key % ny == 0]
    lines = [f"tph {host.n_x} {ny} {host.n_z}"]
    lines += [f"m {keys[i] // ny} {keys[i] % ny} {run(i, j)}" for i, j in pairwise([*starts, len(keys)])]
    return "\n".join(lines) + "\n"


def load_target(spec: str) -> ThreeGraph:
    """Load a target from a file path, or from ``builtin:NAME`` where ``NAME``
    must be the stem of a ``.tg`` file listed in ``homeofind/data``."""
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        data = resources.files("homeofind") / "data"
        shipped = sorted(p.name[:-3] for p in data.iterdir() if p.name.endswith(".tg"))
        if name not in shipped:
            raise FormatError(f"unknown builtin target {name!r}; shipped: {', '.join(shipped)}")
        return parse_threegraph((data / f"{name}.tg").read_text())
    with open(spec) as fh:
        return parse_threegraph(fh.read())


def load_host(path: str) -> TripartiteHost:
    with open(path) as fh:
        return parse_host(fh.read())


def write_certificate(cert: HomeomorphCertificate) -> str:
    """Serialize a certificate.

    Format: ``cert v2`` header, the target as a tg block, one ``v1`` line
    per target vertex appearing in no special cycle (isolated vertices,
    whose placement the disk lines cannot reconstruct), then per special
    cycle a ``disk`` line with the host-local images (a u b w center).
    The text is the embedding alone: its host faces are worked out from
    it (``HomeomorphCertificate.host_faces``), never written.
    """
    aux = cert.target.aux_graph
    emb = cert.embedding
    lines = ["cert v2", *write_threegraph(cert.target).splitlines()]

    in_cycle = set()
    for sc in aux.special_cycles:
        in_cycle.update((sc.a, sc.b))
    for v in sorted(set(emb.v1_map) - in_cycle):
        lines.append(f"v1 {v} {emb.v1_map[v]}")

    for ci, sc in enumerate(aux.special_cycles):
        a, b = emb.v1_map[sc.a], emb.v1_map[sc.b]
        u, w = emb.v2_map[sc.u], emb.v2_map[sc.w]
        lines.append(f"disk {ci} {a} {u} {b} {w} {emb.center_map[ci]}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> HomeomorphCertificate:
    """Read a ``cert v2`` text (see ``write_certificate``); any other
    version, ``cert v1`` included, is refused on its header line."""
    versioned = False
    header = None
    tg_faces: list = []
    v1_lines = []
    disk_lines = []
    try:
        for lineno, tok in _content_lines(text):
            if tok[0] == "cert":
                if versioned:
                    raise ValueError("duplicate cert header")
                if tok[1:] != ["v2"]:
                    raise ValueError("unsupported certificate version, expected 'cert v2'")
                versioned = True
            elif tok[0] in ("tg", "f"):
                if tok[0] == "tg":
                    tg_lineno = lineno
                header = _target_line(tok, header, tg_faces)
            elif tok[0] == "v1":
                if len(tok) != 3:
                    raise ValueError("expected 'v1 v y'")
                v1_lines.append((lineno, int(tok[1]), int(tok[2])))
            elif tok[0] == "disk":
                if len(tok) != 7:
                    raise ValueError("expected 'disk ci a u b w center'")
                disk_lines.append((lineno, tuple(int(t) for t in tok[1:])))
            else:
                raise ValueError(f"unknown directive {tok[0]!r}")
    except ValueError as exc:  # a malformed line, a token that is not an integer, or a bad target
        raise FormatError(f"line {lineno}: {exc}") from exc
    if not versioned:
        raise FormatError("missing 'cert v2' header")

    # every target vertex is in a face or on a v1 line, so this bounds what
    # the auxiliary graph allocates by the size of the text
    placeable = 3 * len(tg_faces) + len(v1_lines)
    if header is not None and header > placeable:
        raise FormatError(
            f"line {tg_lineno}: tg {header} names more vertices than its "
            f"{len(tg_faces)} face lines and {len(v1_lines)} v1 lines can place"
        )
    target = _target(header, tg_faces)
    aux = target.aux_graph
    if len(disk_lines) != len(aux.special_cycles):
        raise FormatError(
            f"certificate has {len(disk_lines)} disk lines, target requires "
            f"{len(aux.special_cycles)}"
        )

    v1_map: dict[int, int] = {}
    v2_map: dict[int, int] = {}
    center_map: dict[int, int] = {}

    def put(lineno, mapping, key, val, what):
        if key in mapping and mapping[key] != val:
            raise FormatError(f"line {lineno}: inconsistent {what} for {key}: {mapping[key]} vs {val}")
        mapping[key] = val

    seen = set()
    for lineno, (ci, a, u, b, w, center) in disk_lines:
        if not 0 <= ci < len(aux.special_cycles) or ci in seen:
            raise FormatError(f"line {lineno}: bad or duplicate cycle index {ci}")
        seen.add(ci)
        sc = aux.special_cycles[ci]
        put(lineno, v1_map, sc.a, a, "v1 image")
        put(lineno, v1_map, sc.b, b, "v1 image")
        put(lineno, v2_map, sc.u, u, "v2 image")
        put(lineno, v2_map, sc.w, w, "v2 image")
        put(lineno, center_map, ci, center, "center")
    for lineno, v, y in v1_lines:
        put(lineno, v1_map, v, y, "v1 image")

    emb = Embedding(v1_map=v1_map, v2_map=v2_map, center_map=center_map)
    return HomeomorphCertificate(target=target, embedding=emb)


def load_certificate(path: str) -> HomeomorphCertificate:
    with open(path) as fh:
        return parse_certificate(fh.read())
