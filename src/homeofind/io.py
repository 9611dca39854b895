"""Flat-file formats: 3-graphs, tripartite hosts, certificates.

The builtin targets are the ``.tg`` files in ``homeofind/data``.  Every
serializer writes in a fixed sorted order so that identical inputs produce
byte-identical files.  Lines whose first token starts with ``#`` are
comments; blank lines are skipped and tokens may be separated by any run
of whitespace.  Faces are sets, so a repeated ``f`` line is accepted and
counted once.  Every malformed input, a non-integer token included, raises
``FormatError`` naming the line where one applies.

A host file's face lines are ORed into the host's z-mask table (see
``core``) as they are read, and ``write_host`` writes the table back in
sorted order, listing each mask's z with ``core.bits``, so the lines of
one (x, y) form one run: lines ``f x y z`` of one head ``f x y ``, with
single spaces, ASCII digits and one line end, ``\\n`` or ``\\r\\n``.
``parse_host`` matches such a run with one regular expression, checks its
x and y once and sums the bits of its z; every other line (the header,
comments, other spacing, digits, spellings or line ends) is read on its
own with the same checks.  Each line is checked as it is read, its
coordinates against the ``tph`` sizes once per distinct token, so the
error names the first malformed line in file order.  Nothing is allocated
in proportion to a header's count: not from a host's ``tph`` sizes, and
not from a certificate's ``tg`` count, which is bounded by the lines that
can place its vertices before anything is built from it.

A host's table is bounded by its text: with k (x, y) entries and largest
z = t, it holds at most k * (t + 1) bits, and ``parse_host`` refuses, on
the line that would pass it, a text whose table would exceed
``TABLE_BITS_PER_CHAR`` (64) bits per character of text plus a floor of
``TABLE_BITS_FLOOR`` (2**23) bits, before any mask that large exists.
The parse's own memory beside the table also follows the text: the z
memo keeps a bit only for a z below 1024, and a match spans at most 1024
lines.  A written host stays far inside the bound: a dense n = 60 host
holds about 0.1 bit per character.
"""

from __future__ import annotations

import re
from functools import reduce
from importlib import resources
from operator import or_

from .core import (
    Embedding,
    HomeomorphCertificate,
    ThreeGraph,
    TripartiteHost,
    bits,
    build_aux_graph,
)


class FormatError(ValueError):
    pass


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _target_line(lineno: int, tok: list[str], header: int | None, faces: list) -> int:
    """One ``tg`` or ``f`` line of a target or certificate file: adds a face
    to ``faces`` or reads the header, and returns the header.  ``ThreeGraph``
    checks the count and each face as its line is read; its ``ValueError``
    reaches the caller's ``line N:`` handler."""
    if tok[0] == "tg":
        if header is not None:
            raise FormatError(f"line {lineno}: duplicate tg header")
        if len(tok) != 2:
            raise FormatError(f"line {lineno}: expected 'tg n'")
        return ThreeGraph(int(tok[1]), frozenset()).vertex_count
    if header is None:
        raise FormatError(f"line {lineno}: face before tg header")
    if len(tok) != 4:
        raise FormatError(f"line {lineno}: expected 'f a b c'")
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
                raise FormatError(f"line {lineno}: unknown directive {tok[0]!r}")
            header = _target_line(lineno, tok, header, faces)
    except FormatError:
        raise
    except ValueError as exc:  # a token that is not an integer, or a bad target
        raise FormatError(f"line {lineno}: {exc}") from exc
    return _target(header, faces)


def write_threegraph(h: ThreeGraph) -> str:
    lines = [f"tg {h.vertex_count}"]
    lines += [f"f {a} {b} {c}" for a, b, c in h.sorted_faces()]
    return "\n".join(lines) + "\n"


class _TokenInts(dict):
    """Token text -> ``int(text)`` for coordinate ``name`` of a class of
    size ``n``: converted the first time it is looked up, and refused, not
    stored, outside [0, n)."""

    def __init__(self, name: str, n: int):
        super().__init__()
        self.name, self.n = name, n

    def _checked(self, tok: str) -> int:
        val = int(tok)
        if not 0 <= val < self.n:
            raise ValueError(f"{self.name} = {val} is outside [0, {self.n})")
        return val

    def __missing__(self, tok: str) -> int:
        val = self[tok] = self._checked(tok)
        return val


# parse_host's bound on a host table: bits per character of text, and a floor
TABLE_BITS_PER_CHAR = 64
TABLE_BITS_FLOOR = 1 << 23


def _over_budget(keys: int, top: int, budget: int) -> str:
    return (
        f"a host table of {keys} (x, y) masks of up to {top} bits would exceed "
        f"its budget of {budget} bits ({TABLE_BITS_PER_CHAR} per character of "
        f"text plus {TABLE_BITS_FLOOR})"
    )


class _ZBits(_TokenInts):
    """A face line's z token -> the bit ``1 << z`` of a checked ``z = int(tok)``.

    ``top`` is the largest z + 1 seen; a new largest z is checked against
    the table budget first, counting the entries in ``table`` (the entry
    being read is already there).  Only a z below ``MEMO_BELOW`` is
    memoized, every spelling of it sharing one bit, so the bits the memo
    keeps come to under 2**19.  A larger z is converted again on each line
    and its bit made there, which costs no more than ORing that bit into
    its entry.
    """

    MEMO_BELOW = 1 << 10

    def __init__(self, nz: int, table: dict[int, int], budget: int):
        super().__init__("z", nz)
        self.table, self.budget = table, budget
        self.top = 0
        self.bits: dict[int, int] = {}

    def __missing__(self, tok: str) -> int:
        z = self._checked(tok)
        if z >= self.top:
            if len(self.table) * (z + 1) > self.budget:
                raise ValueError(_over_budget(len(self.table), z + 1, self.budget))
            self.top = z + 1
        if z >= self.MEMO_BELOW:
            return 1 << z
        bit = self[tok] = self.bits.setdefault(z, 1 << z)
        return bit


# A run of face lines as write_host writes them (group 1 its head "f x y ",
# group 4 its tails joined by their line ends and heads): single spaces,
# ASCII digits, and on every line the first line's own end, "\n" or "\r\n"
# (group 5).  A match takes at most 1024 lines of a run, since the matcher
# keeps some 300 bytes of backtracking state per line until it returns.
# Anything else is one "\n"-delimited segment of the text.
_RUN_OR_SEGMENT = re.compile(
    r"(f ([0-9]+) ([0-9]+) )([0-9]+(?=(\r?\n))(?:\5\1[0-9]+){0,1023})\5|[^\n]*\n?"
)


def parse_host(text: str) -> TripartiteHost:
    """Parse a ``.tph`` host in one pass over its text, checking each line
    as it is read: a ``FormatError`` names the first malformed line.

    After the header, a run of face lines as ``write_host`` writes it is
    read in one step: the consecutive lines ``f x y z`` of one head
    ``f x y ``, single spaces, ASCII digits, each line ended by the run's
    own line end, ``\\n`` or ``\\r\\n``.  Its x and y are checked once and
    the z-bits of its tails are summed into the table entry of its (x, y):
    a sum of distinct bits is their OR, and a sum with fewer set bits than
    tails, where a z repeats, is redone as an OR.  Every other line (the
    header, comments, blank lines, tabs or extra spaces, other digits or
    spellings, other line boundaries of ``str.splitlines``, malformed
    lines) is read on its own, one ``\\n``-delimited segment at a time; a
    face line among them goes through the same commit as a run of one.

    A host repeats a few distinct tokens on many face lines, so each
    distinct token text is converted once per class, through a memo that
    grows only with the tokens read (not with the ``tph`` sizes); every
    coordinate is still ``int(token)``, so spellings and non-integer errors
    are those of a plain per-token ``int()``.  A memo checks a value
    against its class when it converts it, x then y then z, and keeps no
    value outside it, so no face aliases another's entry and the z memo
    makes no bit for a z outside its class.  A bad z in a run names its own
    line.  A face that opens a new entry or a new largest z checks the
    table's bound (see the module docstring) first.
    """
    sizes = None
    table: dict[int, int] = {}
    budget = TABLE_BITS_PER_CHAR * len(text) + TABLE_BITS_FLOOR

    def commit(xt: str, yt: str, tails: list[str]) -> None:
        """ORs the faces (x, y, z) of one run into the table, one z per
        tail; a bad z moves ``lineno`` from the run's first line to its own."""
        nonlocal lineno
        key = xs[xt] * ny + ys[yt]
        run = table.get(key)
        if run is None:  # a new entry, counted from here on
            if (len(table) + 1) * zs.top > budget:
                raise ValueError(_over_budget(len(table) + 1, zs.top, budget))
            table[key] = run = 0
        try:  # a run of one line, as is every line off the written layout, needs no sum
            mask = sum(map(zs.__getitem__, tails)) if len(tails) > 1 else zs[tails[0]]
        except ValueError:  # read the tails again: the first to raise is the bad one
            for lineno, tail in enumerate(tails, lineno):
                zs[tail]
            raise
        if mask.bit_count() != len(tails):  # a z repeats, and the sum carried
            mask = reduce(or_, map(zs.__getitem__, tails))
        table[key] = run | mask

    lineno = after = 1
    try:
        for m in _RUN_OR_SEGMENT.finditer(text):
            head, xt, yt, body, end = m.groups()
            if head and sizes is not None:
                tails = body.split(end + head)
                lineno, after = after, after + len(tails)
                commit(xt, yt, tails)
                continue
            lines = m.group().splitlines()
            for lineno, raw in enumerate(lines, after):
                line = raw.split()
                if not line or line[0].startswith("#"):
                    continue
                elif line[0] == "tph":
                    if sizes is not None:
                        raise FormatError(f"line {lineno}: duplicate tph header")
                    if len(line) != 4:
                        raise FormatError(f"line {lineno}: expected 'tph nx ny nz'")
                    nx, ny, nz = sizes = TripartiteHost(map(int, line[1:]), ()).class_sizes
                    xs, ys, zs = _TokenInts("x", nx), _TokenInts("y", ny), _ZBits(nz, table, budget)
                elif line[0] != "f":
                    raise FormatError(f"line {lineno}: unknown directive {line[0]!r}")
                elif sizes is None:
                    raise FormatError(f"line {lineno}: face before tph header")
                elif len(line) != 4:
                    raise FormatError(f"line {lineno}: expected 'f x y z'")
                else:
                    commit(line[1], line[2], line[3:])
            after += len(lines)
    except FormatError:
        raise
    except ValueError as exc:  # a bad token, header size or coordinate, or over budget
        raise FormatError(f"line {lineno}: {exc}") from exc
    if sizes is None:
        raise FormatError("missing tph header")
    return TripartiteHost._from_table(sizes, table)


def write_host(host: TripartiteHost) -> str:
    """The face lines in lexicographic order, from the sorted table: each
    (x, y) makes one ``f x y`` prefix, joined to the text of each z in its
    mask.  That text is made once per z that occurs in the host."""
    ny = host.n_y
    z_text = {z: str(z) for z in bits(host.occupied)}.__getitem__
    lines = [f"tph {host.n_x} {ny} {host.n_z}"]
    for i, m in sorted(host.zmasks.items()):
        lines += map(f"f {i // ny} {i % ny} ".__add__, map(z_text, bits(m)))
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

    Format: ``cert v1`` header, the target as a tg block, one ``v1`` line
    per target vertex appearing in no special cycle (isolated vertices,
    whose placement the disk lines cannot reconstruct), then per special
    cycle a ``disk`` line with the host-local images (a u b w center)
    followed by its four ``hf`` host faces.
    """
    aux = build_aux_graph(cert.target)
    emb = cert.embedding
    lines = ["cert v1", *write_threegraph(cert.target).splitlines()]

    in_cycle = set()
    for sc in aux.special_cycles:
        in_cycle.update((sc.a, sc.b))
    for v in sorted(set(emb.v1_map) - in_cycle):
        lines.append(f"v1 {v} {emb.v1_map[v]}")

    for ci, sc in enumerate(aux.special_cycles):
        a, b = emb.v1_map[sc.a], emb.v1_map[sc.b]
        u, w = emb.v2_map[sc.u], emb.v2_map[sc.w]
        lines.append(f"disk {ci} {a} {u} {b} {w} {emb.center_map[ci]}")
        for f in cert.host_faces[4 * ci:4 * ci + 4]:
            lines.append(f"hf {f[0]} {f[1]} {f[2]}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> HomeomorphCertificate:
    versioned = False
    header = None
    tg_faces: list = []
    v1_lines = []
    disk_blocks = []
    current = None
    try:
        for lineno, tok in _content_lines(text):
            if tok[0] == "cert":
                if versioned:
                    raise FormatError(f"line {lineno}: duplicate cert header")
                if tok[1:] != ["v1"]:
                    raise FormatError(f"line {lineno}: unsupported certificate version")
                versioned = True
            elif tok[0] in ("tg", "f"):
                if tok[0] == "tg":
                    tg_lineno = lineno
                header = _target_line(lineno, tok, header, tg_faces)
            elif tok[0] == "v1":
                if len(tok) != 3:
                    raise FormatError(f"line {lineno}: expected 'v1 v y'")
                v1_lines.append((lineno, int(tok[1]), int(tok[2])))
            elif tok[0] == "disk":
                if len(tok) != 7:
                    raise FormatError(f"line {lineno}: expected 'disk ci a u b w center'")
                current = (lineno, tuple(int(t) for t in tok[1:]), [])
                disk_blocks.append(current)
            elif tok[0] == "hf":
                if current is None:
                    raise FormatError(f"line {lineno}: hf before any disk line")
                if len(tok) != 4:
                    raise FormatError(f"line {lineno}: expected 'hf x y z'")
                current[2].append((int(tok[1]), int(tok[2]), int(tok[3])))
            else:
                raise FormatError(f"line {lineno}: unknown directive {tok[0]!r}")
    except FormatError:
        raise
    except ValueError as exc:  # a token that is not an integer, or a bad target
        raise FormatError(f"line {lineno}: {exc}") from exc
    if not versioned:
        raise FormatError("missing 'cert v1' header")

    # every target vertex is in a face or on a v1 line, so this bounds what
    # build_aux_graph allocates by the size of the text
    placeable = 3 * len(tg_faces) + len(v1_lines)
    if header is not None and header > placeable:
        raise FormatError(
            f"line {tg_lineno}: tg {header} names more vertices than its "
            f"{len(tg_faces)} face lines and {len(v1_lines)} v1 lines can place"
        )
    target = _target(header, tg_faces)
    aux = build_aux_graph(target)
    if len(disk_blocks) != len(aux.special_cycles):
        raise FormatError(
            f"certificate has {len(disk_blocks)} disk blocks, target requires "
            f"{len(aux.special_cycles)}"
        )

    v1_map: dict[int, int] = {}
    v2_map: dict[int, int] = {}
    center_map: dict[int, int] = {}

    def put(lineno, mapping, key, val, what):
        if key in mapping and mapping[key] != val:
            raise FormatError(
                f"line {lineno}: inconsistent {what} for {key}: {mapping[key]} vs {val}"
            )
        mapping[key] = val

    seen = set()
    for lineno, (ci, a, u, b, w, center), hfs in disk_blocks:
        if not 0 <= ci < len(aux.special_cycles) or ci in seen:
            raise FormatError(f"line {lineno}: bad or duplicate cycle index {ci}")
        seen.add(ci)
        if len(hfs) != 4:
            raise FormatError(f"line {lineno}: disk {ci} must carry exactly four 'hf x y z' faces")
        sc = aux.special_cycles[ci]
        put(lineno, v1_map, sc.a, a, "v1 image")
        put(lineno, v1_map, sc.b, b, "v1 image")
        put(lineno, v2_map, sc.u, u, "v2 image")
        put(lineno, v2_map, sc.w, w, "v2 image")
        put(lineno, center_map, ci, center, "center")
    faces = [f for _, _, hfs in sorted(disk_blocks, key=lambda bl: bl[1][0]) for f in hfs]
    for lineno, v, y in v1_lines:
        put(lineno, v1_map, v, y, "v1 image")

    emb = Embedding(v1_map=v1_map, v2_map=v2_map, center_map=center_map)
    return HomeomorphCertificate(target=target, host_faces=tuple(faces), embedding=emb)


def load_certificate(path: str) -> HomeomorphCertificate:
    with open(path) as fh:
        return parse_certificate(fh.read())
