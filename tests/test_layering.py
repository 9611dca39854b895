"""The certificate path depends on ``core`` alone, and the thresholds are exact.

``verify`` decides whether a certificate holds and ``io`` reads and writes
the files it is decided on; neither may import a search stage, so no search
code can enter a verdict.  The check parses the two modules' source, so it
sees every import, also one inside a function.

``exact``, ``links`` and ``embed`` make every accept/reject decision of the
search; no float may enter one, so their source holds no float literal, no
``float`` and none of the float-valued ``math`` functions.

The brute-force oracles that check the shipping code are test code, in
``tests/oracles.py``: no package module defines a function or class of the
same name, so a test comparing the two compares two paths.

The z-scan in ``links`` decides every Y-pair of the chosen link, and
``embed`` reads only its bad-pair masks: no function or class of ``embed``
names the pair test or a forbidden count.

A name starting with ``_`` is private to its module: no package module
imports one from another, nor reads one as an attribute (``host._at``)
unless it defines that name itself.  Every name a package module imports is used
there, unless the package's ``__init__`` imports it from that module.

The builtin targets are the ``.tg`` files in ``homeofind/data``: no package
module writes a face (a tuple of three integer literals) into its code.

The host owns its table's facts: no package module but ``core`` names the
byte columns, their bit table or the cache of link Y sides, and
``links.HostIndex`` defines ``__init__`` and ``link`` alone, reading link
sides off the host rather than working out facts of its own.

A link is its host and z: ``LinkGraph``'s fields are ``host`` and ``z``
alone, and no function takes both a link and a host, so no caller can pass
a link with a host it is not a link of.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import homeofind
from homeofind.links import LinkGraph

SRC = Path(homeofind.__file__).resolve().parent

PUBLIC = [
    "AuxGraph",
    "Config",
    "Embedding",
    "HomeomorphCertificate",
    "LinkGraph",
    "PipelineError",
    "ProblemGraph",
    "SweepSpec",
    "ThreeGraph",
    "TripartiteHost",
    "build_aux_graph",
    "covered_pairs",
    "euler_characteristic",
    "find_complete_subgraph",
    "find_homeomorph",
    "gen_random_host",
    "load_certificate",
    "load_host",
    "load_target",
    "pick_link_vertex",
    "run_sweep",
    "verify_certificate",
    "write_certificate",
]


def package_import_names(path: Path) -> list[tuple[str, list[str]]]:
    """(module, names) for every import of a package module in the file:
    the module as a dotted name under ``homeofind`` (a relative import
    resolved against the package) and the names taken from it, none for a
    module imported whole."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(a.name, []) for a in node.names if a.name.split(".")[0] == "homeofind"]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.level > 1:  # above the package
                found.append(("." * node.level + (node.module or ""), names))
                continue
            if node.level == 1:
                base = "homeofind" + (f".{node.module}" if node.module else "")
            elif node.module.split(".")[0] == "homeofind":
                base = node.module
            else:
                continue
            if base == "homeofind":  # from homeofind import a, b
                found += [(f"homeofind.{name}", []) for name in names]
            else:
                found.append((base, names))
    return found


def package_imports(path: Path) -> list[str]:
    """The package modules imported by the file (see ``package_import_names``)."""
    return [module for module, _ in package_import_names(path)]


@pytest.mark.parametrize("module", ["verify", "io"])
def test_certificate_path_imports_core_only(module):
    imports = package_imports(SRC / f"{module}.py")
    assert set(imports) == {"homeofind.core"}, imports


def test_import_scan_resolves_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import os\nimport homeofind.links\nfrom homeofind import embed\n"
        "from homeofind.core import Face\nfrom .core import Config\n"
        "from . import errors, io\nfrom ..other import x\n"
        "def f():\n    from .harness import run_sweep\n"
    )
    assert package_imports(src) == [
        "homeofind.links", "homeofind.embed", "homeofind.core", "homeofind.core",
        "homeofind.errors", "homeofind.io", "..other", "homeofind.harness",
    ]


def private_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every name starting with ``_`` that the file
    imports from a package module."""
    return [
        (module, name)
        for module, names in package_import_names(path)
        if module.startswith("homeofind.")
        for name in names
        if name.startswith("_")
    ]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_private_name_crosses_modules(module):
    assert private_imports(SRC / f"{module}.py") == []


def test_private_import_scan_finds_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from __future__ import annotations\nfrom .links import HostIndex, _bits\n"
        "from homeofind.io import _DIGITS\nimport homeofind._x\n"
        "def f():\n    from .core import _norm_face as nf\n"
    )
    assert private_imports(src) == [
        ("homeofind.links", "_bits"), ("homeofind.io", "_DIGITS"),
        ("homeofind.core", "_norm_face"),
    ]


def private_attribute_reads(path: Path) -> list[str]:
    """The names starting with ``_``, dunders aside, that the file reads as
    an attribute (``obj._name``) without defining them: as a function or
    class, an assigned name or attribute, or the name given to
    ``setattr`` or ``__setattr__``.  In source order, once each."""
    tree = ast.parse(path.read_text())
    defined, read = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) > 1 and (
            getattr(node.func, "id", None) == "setattr"
            or getattr(node.func, "attr", None) == "__setattr__"
        ):
            if isinstance(node.args[1], ast.Constant):
                defined.add(node.args[1].value)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
            if name.startswith("_") and not name.endswith("__") and name not in read:
                read.append(name)
    return [name for name in read if name not in defined]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_private_attribute_crosses_modules(module):
    assert private_attribute_reads(SRC / f"{module}.py") == []


def test_private_attribute_scan_finds_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        self._set = 1\n"
        "        object.__setattr__(self, '_kept', 2)\n"
        "        setattr(self, '_named', 3)\n"
        "    def _own(self):\n"
        "        return self._own, self._set, self._kept, self._named, self.__dict__\n"
        "def f(host, h):\n"
        "    g = host._at\n"
        "    return host.from_table, h._at(0), A._from_table(), g\n"
        "_mod = 1\n"
        "x = other._mod\n"
    )
    assert private_attribute_reads(src) == ["_at", "_from_table"]


def unused_imports(path: Path, exported: set[str]) -> list[str]:
    """The names the file binds by an import (``__future__`` aside) that
    neither its code (``names_used``, where an attribute of the same name
    counts) nor its ``__all__`` names, other than those in ``exported``."""
    tree = ast.parse(path.read_text())
    bound, kept = [], names_used(tree) | exported
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            kept |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in bound if name not in kept]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_import_is_used(module):
    reexported = {
        name
        for imported, names in package_import_names(SRC / "__init__.py")
        if imported == f"homeofind.{module}"
        for name in names
    }
    assert unused_imports(SRC / f"{module}.py", reexported) == []


def test_unused_import_scan_finds_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from __future__ import annotations\nimport os, os.path as osp\nimport json.decoder\n"
        "from .core import Face, Pair as P, bits, Config\nfrom . import errors\n"
        "__all__ = ['bits']\n"
        "def f(x: 'Face') -> None:\n    from .io import load_host\n    raise errors.E\n"
    )
    assert unused_imports(src, {"P"}) == ["os", "osp", "json", "Config", "load_host"]


def test_public_names_resolve():
    assert sorted(homeofind.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(homeofind, name) is not None, name


EXACT_MODULES = ["exact", "links", "embed"]
FLOAT_MATH = {"pow", "sqrt", "log", "exp"}


def float_uses(path: Path) -> list[tuple[int, str]]:
    """(line, what) for every float literal, use of the name ``float`` and
    float-valued ``math`` function (pow, sqrt, log, exp) in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FLOAT_MATH
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name in FLOAT_MATH]
    return sorted(found)


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_decisions_use_no_float(module):
    assert float_uses(SRC / f"{module}.py") == []


def test_float_scan_finds_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import math\nx = 0.5\ny = float(3)\n"
        "z = math.sqrt(2) + math.log(3) + math.floor(2)\n"
        "from math import exp, ceil\nw = 1e3 + 2j + math.pow(2, 3)\n"
        "s = '0.5 float'\n"
    )
    assert float_uses(src) == [
        (2, "0.5"), (3, "float"), (4, "math.log"), (4, "math.sqrt"),
        (5, "math.exp"), (6, "1000.0"), (6, "2j"), (6, "math.pow"),
    ]


def names_used(node: ast.AST) -> set[str]:
    """Every name and attribute named in the node's code, annotations
    included, also those written as strings."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        if isinstance(sub, (ast.arg, ast.AnnAssign)):
            annotations = [sub.annotation]
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [sub.returns]
        else:
            continue
        for ann in filter(None, annotations):
            for const in ast.walk(ann):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    found |= names_used(ast.parse(const.value, mode="eval"))
    return found


ORACLES = Path(__file__).with_name("oracles.py")


def top_level_names(path: Path) -> set[str]:
    """The names of the top-level functions and classes of the file."""
    return {
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_defines_an_oracle(module):
    # the oracles live in tests/oracles.py, out of the package, so shipping
    # code cannot import them: a package module that did would fail the CLI
    # round trip in CI, which runs with only src on the path.  What is left
    # to check is that no module ships a second definition under an
    # oracle's name.
    oracles = top_level_names(ORACLES)
    assert oracles
    assert top_level_names(SRC / f"{module}.py") & oracles == set()


def names_named(path: Path) -> set[str]:
    """Every name the file names: those of ``names_used``, every name it
    imports, under its own name and its alias, and every string constant
    that is a name, as ``getattr`` takes one."""
    tree = ast.parse(path.read_text())
    found = names_used(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found |= set(alias.name.split(".")) | {alias.asname} - {None}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


PAIR_VERDICT = {"good_pair_rule", "count_forbidden", "forbidden_by_pair"}


def test_embed_leaves_pair_verdicts_to_links():
    found = [
        (node.name, name)
        for node in ast.parse((SRC / "embed.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for name in sorted(names_used(node) & PAIR_VERDICT)
    ]
    assert found == []


def literal_faces(path: Path) -> list[tuple[int, str]]:
    """(line, text) for every tuple of three integer literals in the file:
    a face written into the code."""
    return sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 3
        and all(isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts)
    )


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_target_is_built_from_literal_faces(module):
    # the builtin targets are the data files; no module writes a face
    assert literal_faces(SRC / f"{module}.py") == []


def test_literal_face_scan_finds_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "t = ThreeGraph(3, frozenset({(0, 1, 2)}))\n"
        "faces = [(0, 1, 3), (0, 2, 'x'), (1, 2), (True, 1, 2)]\n"
    )
    assert literal_faces(src) == [(1, "(0, 1, 2)"), (2, "(0, 1, 3)")]


HOST_TABLE = {"byte_columns", "link_y_masks", "_ones"}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "core"))
def test_only_core_names_the_host_table_layout(module):
    # e(L_z), the Y side of L_z and disk masks are TripartiteHost methods;
    # every other module reads them through those
    assert names_named(SRC / f"{module}.py") & HOST_TABLE == set()


def class_members(path: Path, name: str) -> list[str]:
    """The names that the body of the top-level class ``name`` in the file
    defines, in order: its functions and classes, and the names it
    assigns."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not (isinstance(node, ast.ClassDef) and node.name == name):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                found += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return found


def test_host_index_keeps_only_its_link():
    assert class_members(SRC / "links.py", "HostIndex") == ["__init__", "link"]


def test_host_table_scans_find_every_form(tmp_path):
    forms = [
        "def f(h):\n    return h.byte_columns\n",
        "def f(h):\n    h.link_y_masks[0] = ()\n",
        "def f(h):\n    return getattr(h, 'link_y_masks')\n",
        "from .core import _ones as bits\n",
    ]
    for i, form in enumerate(forms):
        src = tmp_path / f"m{i}.py"
        src.write_text(form)
        assert names_named(src) & HOST_TABLE, form
    src = tmp_path / "members.py"
    src.write_text(
        "class HostIndex:\n"
        "    '''Reads no byte_columns.'''\n"
        "    cache: dict = {}\n"
        "    def __init__(self, host):\n        self.host = host\n"
        "    def link(self, z):\n        def inner():\n            pass\n"
        "    async def link_size(self, z):\n        pass\n"
        "    size = alias, other = link_size, link\n"
        "    class Nested:\n        pass\n"
        "def disk_mask(self):\n    pass\n"
    )
    assert names_named(src) & HOST_TABLE == set()
    assert class_members(src, "HostIndex") == [
        "cache", "__init__", "link", "link_size", "size", "alias", "other", "Nested",
    ]
    assert class_members(src, "LinkGraph") == []


def test_link_graph_is_its_host_and_z():
    assert [f.name for f in dataclasses.fields(LinkGraph)] == ["host", "z"]


def annotated_as(node: ast.expr | None) -> str | None:
    """The name an annotation writes, as a name or as a string, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip()
    return None


def link_and_host_takers(path: Path) -> list[str]:
    """The functions and methods of the file with a positional or
    keyword-only parameter annotated ``LinkGraph`` and one annotated
    ``TripartiteHost``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            kinds = {annotated_as(p.annotation) for p in a.posonlyargs + a.args + a.kwonlyargs}
            if {"LinkGraph", "TripartiteHost"} <= kinds:
                found.append(node.name)
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_function_takes_a_link_and_a_host(module):
    # the link's host is link.host
    assert link_and_host_takers(SRC / f"{module}.py") == []


def test_link_and_host_scan_finds_every_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def a(link: LinkGraph, K: int, host: TripartiteHost): pass\n"
        "def b(link: LinkGraph, /, *, host: 'TripartiteHost'): pass\n"
        "class C:\n"
        "    def c(self, h: TripartiteHost, *args: int, link: ' LinkGraph ' = None): pass\n"
        "async def d(host: 'TripartiteHost', link: 'LinkGraph', **kw: int): pass\n"
        "def e(link: LinkGraph, host): pass\n"
        "def f(host: TripartiteHost, links: list[LinkGraph]) -> LinkGraph: pass\n"
        "def g(link: LinkGraph, *hosts: TripartiteHost, **kw: TripartiteHost): pass\n"
    )
    assert link_and_host_takers(src) == ["a", "b", "d", "c"]
