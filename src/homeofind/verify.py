"""Search-free certificate validation.

The verifier never trusts the pipeline.  A certificate is its target and
an embedding of the target's canonical glued subdivision; the verifier
maps the shape's faces through the embedding (``cert.host_faces``) and
demands that every map is keyed by exactly the shape's vertices, that the
maps are injective, and that every mapped face is a face of the host.  The
shape and the auxiliary graph are facts of the target, built in ``core``
from the target alone and kept on the ``ThreeGraph``, so the verifier
reads each once per target object, however many certificates of it are
checked; every check on the certificate itself runs every time.  It
imports nothing of the package but ``core``, so no search code can enter a
verdict.  The brute-force oracles of the search stages are test code
(``tests/oracles.py``), so no shipping path can call them.
"""

from __future__ import annotations

from dataclasses import dataclass

# the canonical shape lives in core, so that a target keeps it; its builder is
# imported back only for ``homeofind`` and the tests that import it from here
from .core import (
    HomeomorphCertificate,
    TripartiteHost,
    canonical_glued_subdivision,
)


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    check: int | None = None
    reason: str = ""


def _fail(check: int, reason: str) -> VerifyResult:
    return VerifyResult(passed=False, check=check, reason=reason)


def verify_certificate(cert: HomeomorphCertificate, host: TripartiteHost) -> VerifyResult:
    """Check a certificate against the host; trusts nothing.

    Runs four checks in order and reports the first violation:
    (1) v1_map is keyed by exactly the target vertices 0..v-1 and sends
    them into Y (this reaches isolated vertices, which no face shows),
    v2_map by exactly the auxiliary graph's V2 and center_map by exactly
    the special-cycle indices 0..3e(H)-1, (2) v1_map and v2_map are
    injective, (3) the 4-disk centers are distinct, (4) every face of the
    canonical glued subdivision, mapped through the embedding, is a face
    of the host (``host.has`` range-checks each coordinate).
    """
    target = cert.target
    emb = cert.embedding
    aux = target.aux_graph

    # (1) the maps' keys are the shape's vertices, and the original ones
    # land in Y
    if set(emb.v1_map) != set(aux.v1):
        return _fail(1, f"v1_map does not map exactly the target vertices 0..{target.v - 1}")
    for v, y in emb.v1_map.items():
        if not 0 <= y < host.n_y:
            return _fail(1, f"v1_map sends vertex {v} to {y}, outside Y = [0, {host.n_y})")
    if set(emb.v2_map) != set(aux.v2):
        return _fail(1, "v2_map keys are not the auxiliary graph's V2")
    if set(emb.center_map) != set(range(3 * target.e)):
        return _fail(1, "center_map keys are not the special-cycle indices 0 to 3e(H) - 1")

    # (2) injectivity of the vertex maps
    for name, m in (("v1_map", emb.v1_map), ("v2_map", emb.v2_map)):
        if len(set(m.values())) != len(m):
            return _fail(2, f"{name} is not injective")

    # (3) distinct centers
    if len(set(emb.center_map.values())) != len(emb.center_map):
        return _fail(3, "4-disk centers are not pairwise distinct")

    # (4) the mapped shape lies in the host
    for f in cert.host_faces:
        if not host.has(*f):
            return _fail(4, f"certificate face {f} not a face of the host")

    return VerifyResult(passed=True)
