"""The certificate path depends on ``core`` alone.

``verify`` decides whether a certificate holds and ``io`` reads and writes
the files it is decided on; neither may import a search stage, so no search
code can enter a verdict.  The check parses the two modules' source, so it
sees every import, also one inside a function.
"""

import ast
from pathlib import Path

import pytest

import homeofind

SRC = Path(homeofind.__file__).resolve().parent

PUBLIC = [
    "AuxGraph",
    "Config",
    "Embedding",
    "FourCycle",
    "HomeomorphCertificate",
    "LinkGraph",
    "PipelineError",
    "ProblemGraph",
    "SubdividedComplex",
    "SweepSpec",
    "ThreeGraph",
    "TripartiteHost",
    "build_aux_graph",
    "build_triple_subdivision",
    "canonical_glued_subdivision",
    "classify_cycles",
    "clique_oracle",
    "count_disks",
    "covered_pairs",
    "euler_characteristic",
    "expectation_oracle",
    "find_complete_subgraph",
    "find_homeomorph",
    "forbidden_expectation_oracle",
    "gen_random_host",
    "load_certificate",
    "load_host",
    "load_target",
    "pick_link_vertex",
    "run_sweep",
    "verify_certificate",
    "write_certificate",
]


def package_imports(path: Path) -> list[str]:
    """The package modules imported by the file, as dotted names under
    ``homeofind`` (a relative import resolved against the package)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "homeofind"]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 1:  # above the package
                found.append("." * node.level + (node.module or ""))
                continue
            if node.level == 1:
                base = "homeofind" + (f".{node.module}" if node.module else "")
            elif node.module.split(".")[0] == "homeofind":
                base = node.module
            else:
                continue
            if base == "homeofind":  # from homeofind import a, b
                found += [f"homeofind.{a.name}" for a in node.names]
            else:
                found.append(base)
    return found


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


def test_public_names_resolve():
    assert sorted(homeofind.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(homeofind, name) is not None, name
