"""Find and certify homeomorphic copies of 2-complexes in dense 3-graphs."""

from .core import (
    AuxGraph,
    Config,
    Embedding,
    HomeomorphCertificate,
    ThreeGraph,
    TripartiteHost,
    build_aux_graph,
    covered_pairs,
    euler_characteristic,
)
from .embed import ProblemGraph, find_complete_subgraph, find_homeomorph
from .errors import PipelineError
from .harness import SweepSpec, gen_random_host, run_sweep
from .io import load_certificate, load_host, load_target, write_certificate
from .links import LinkGraph, pick_link_vertex
from .verify import canonical_glued_subdivision, verify_certificate

__all__ = [
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
    "canonical_glued_subdivision",
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
