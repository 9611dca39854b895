"""Flat-file formats: 3-graphs, tripartite hosts, certificates.

The builtin targets are the ``.tg`` files in ``homeofind/data``.  Every
serializer writes in a fixed sorted order so that identical inputs produce
byte-identical files.  Lines whose first token starts with ``#`` are
comments; blank lines are skipped and tokens may be separated by any run
of whitespace.  Faces are sets, so a repeated ``f`` line is accepted and
counted once.  Every malformed input, a non-integer token included, raises
``FormatError`` naming the line where one applies.

A host's text holds its z-mask table (see ``core``): ``write_host``
writes, in sorted order, one line ``m x y HEX`` per (x, y) entry, HEX
being the entry's mask in hexadecimal, bit z set for the face (x, y, z).
``parse_host`` reads these lines and ``f x y z`` face lines, in any order
and mix, ORing each into the entry of its (x, y).  HEX is read as
``int(HEX, 16)`` reads it, so ``0x``, ``+``, ``_`` and upper case spell a
mask too; a mask that is negative, 0, or has a bit at or above n_z is
refused.  Each line is checked as it is read, its coordinates against the
``tph`` sizes once per distinct token, so the error names the first
malformed line in file order.  Nothing is allocated in proportion to a
header's count: not from a host's ``tph`` sizes, and not from a
certificate's ``tg`` count, which is bounded by the lines that can place
its vertices before anything is built from it.

A host's table is bounded by its text: with k (x, y) entries and largest
z = t, it holds at most k * (t + 1) bits, and ``parse_host`` refuses, on
the line that would pass it, a text whose table would exceed
``TABLE_BITS_PER_CHAR`` (64) bits per character of text plus a floor of
``TABLE_BITS_FLOOR`` (2**23) bits, before any mask that large exists: a
HEX token holds at most 4 bits per character of its own text, and a z's
bit is made only after its check.  The parse's own memory beside the
table also follows the text: the z memo keeps a bit only for a z below
1024.  A written host stays far inside the bound: a dense n = 60 host
holds about 2.5 bits per character.
"""

from __future__ import annotations

from importlib import resources

from .core import (
    Embedding,
    HomeomorphCertificate,
    ThreeGraph,
    TripartiteHost,
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
    """An ``f`` line's z token -> the bit ``1 << z`` of a checked
    ``z = int(tok)``, and an ``m`` line's HEX token -> its checked mask.

    ``top`` is the largest bit length of any mask read so far; a wider
    mask is checked against the table budget first, counting the entries
    in ``table`` (the entry being read is already there).  Only a z below
    ``MEMO_BELOW`` is memoized, every spelling of it sharing one bit, so
    the bits the memo keeps come to under 2**19.  A larger z is converted
    again on each line and its bit made there, which costs no more than
    ORing that bit into its entry.
    """

    MEMO_BELOW = 1 << 10

    def __init__(self, nz: int, table: dict[int, int], budget: int):
        super().__init__("z", nz)
        self.table, self.budget = table, budget
        self.top = 0
        self.bits: dict[int, int] = {}

    def _widen(self, width: int) -> None:
        if width > self.top:
            if width > self.n:
                raise ValueError(f"z = {width - 1} is outside [0, {self.n})")
            if len(self.table) * width > self.budget:
                raise ValueError(_over_budget(len(self.table), width, self.budget))
            self.top = width

    def __missing__(self, tok: str) -> int:
        z = self._checked(tok)
        self._widen(z + 1)
        if z >= self.MEMO_BELOW:
            return 1 << z
        bit = self[tok] = self.bits.setdefault(z, 1 << z)
        return bit

    def mask(self, tok: str) -> int:
        mask = int(tok, 16)  # at most 4 bits per character of its own token
        if mask <= 0:
            raise ValueError("mask is negative" if mask else "mask 0 names no face")
        self._widen(mask.bit_length())
        return mask


def parse_host(text: str) -> TripartiteHost:
    """Parse a ``.tph`` host in one pass over its lines, checking each line
    as it is read: a ``FormatError`` names the first malformed line.

    After the header, an ``f x y z`` line ORs the bit of z, and an
    ``m x y HEX`` line the mask ``int(HEX, 16)``, into the table entry of
    its (x, y); the two may name the same entry.  A mask that is not
    positive, or has a bit at or above n_z, is refused.  A host repeats a
    few distinct tokens on many lines, so each distinct x, y or z token
    text is converted once per class, through a memo that grows only with
    the tokens read (not with the ``tph`` sizes); every coordinate is still
    ``int(token)``, so spellings and non-integer errors are those of a
    plain per-token ``int()``.  A memo checks a value against its class
    when it converts it, x then y then z, and keeps no value outside it, so
    no line aliases another's entry and no bit outside the z class is made.
    A line that opens a new entry, or makes a mask wider than any before,
    checks the table's bound (see the module docstring) first.
    """
    sizes = None
    table: dict[int, int] = {}
    budget = TABLE_BITS_PER_CHAR * len(text) + TABLE_BITS_FLOOR
    try:
        for lineno, tok in enumerate(map(str.split, text.splitlines()), 1):
            # a well-formed f or m line comes first: it is nearly every line
            if len(tok) == 4 and tok[0] in ("f", "m") and sizes is not None:
                key = xs[tok[1]] * ny + ys[tok[2]]
                entry = table.get(key)
                if entry is None:  # a new entry, counted from here on
                    if (len(table) + 1) * zs.top > budget:
                        raise ValueError(_over_budget(len(table) + 1, zs.top, budget))
                    table[key] = entry = 0
                table[key] = entry | (zs[tok[3]] if tok[0] == "f" else zs.mask(tok[3]))
            elif not tok or tok[0].startswith("#"):
                continue
            elif tok[0] == "tph":
                if sizes is not None:
                    raise FormatError(f"line {lineno}: duplicate tph header")
                if len(tok) != 4:
                    raise FormatError(f"line {lineno}: expected 'tph nx ny nz'")
                nx, ny, nz = sizes = TripartiteHost(map(int, tok[1:]), ()).class_sizes
                xs, ys, zs = _TokenInts("x", nx), _TokenInts("y", ny), _ZBits(nz, table, budget)
            elif tok[0] not in ("f", "m"):
                raise FormatError(f"line {lineno}: unknown directive {tok[0]!r}")
            elif sizes is None:
                what = "face" if tok[0] == "f" else "mask"
                raise FormatError(f"line {lineno}: {what} before tph header")
            else:
                shape = "f x y z" if tok[0] == "f" else "m x y HEX"
                raise FormatError(f"line {lineno}: expected '{shape}'")
    except FormatError:
        raise
    except ValueError as exc:  # a bad token, header size or coordinate, or over budget
        raise FormatError(f"line {lineno}: {exc}") from exc
    if sizes is None:
        raise FormatError("missing tph header")
    return TripartiteHost._from_table(sizes, table)


def write_host(host: TripartiteHost) -> str:
    """One ``m x y HEX`` line per table entry, in sorted order: HEX is the
    entry's z-mask in lower-case hexadecimal."""
    ny = host.n_y
    lines = [f"tph {host.n_x} {ny} {host.n_z}"]
    lines += [f"m {i // ny} {i % ny} {m:x}" for i, m in sorted(host.zmasks.items())]
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
