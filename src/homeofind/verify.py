"""Search-free certificate validation.

The verifier never trusts the pipeline: it derives the canonical glued
subdivision of the target and demands that the certificate's faces, after
relabeling through the recorded embedding, match it face for face.  The
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
    Label,
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

    Runs six checks in order and reports the first violation:
    (1) all faces exist in the host, (2) face count is 12 e(H),
    (3) embedding maps are injective, (4) centers are distinct,
    (5) v2_map and center_map are keyed by exactly the auxiliary graph's V2
    and special cycles, and the relabeled face set equals the canonical
    glued subdivision, (6) v1_map's keys are exactly the target vertices
    0..v-1 and its images lie in Y (this reaches isolated vertices, which
    no face shows).
    """
    target = cert.target
    emb = cert.embedding

    # (1) membership
    for f in cert.host_faces:
        if not host.has(*f):
            return _fail(1, f"certificate face {f} not a face of the host")

    # (2) face count
    expected = 12 * target.e
    if len(cert.host_faces) != expected:
        return _fail(
            2, f"certificate lists {len(cert.host_faces)} faces, expected {expected}"
        )

    # (3) injectivity of the vertex maps
    for name, m in (("v1_map", emb.v1_map), ("v2_map", emb.v2_map)):
        if len(set(m.values())) != len(m):
            return _fail(3, f"{name} is not injective")

    # (4) distinct centers
    if len(set(emb.center_map.values())) != len(emb.center_map):
        return _fail(4, "4-disk centers are not pairwise distinct")

    # (5) relabel through the embedding and compare with the canonical shape
    aux = target.aux_graph
    if set(emb.v2_map) != set(aux.v2):
        return _fail(5, "v2_map keys are not the auxiliary graph's V2")
    if set(emb.center_map) != set(range(3 * target.e)):
        return _fail(5, "center_map keys are not the special-cycle indices 0 to 3e(H) - 1")
    # one map per host class, from an image to its canonical label
    x_label = {emb.v2_map[u]: tag for u, tag in zip(aux.v2, aux.v2_tags)}
    y_label = {y: ("orig", v) for v, y in emb.v1_map.items()}
    z_label = {
        emb.center_map[ci]: ("corner", sc.face, sc.edge)
        for ci, sc in enumerate(aux.special_cycles)
    }

    relabeled: set[frozenset[Label]] = set()
    for x, y, z in cert.host_faces:
        if x not in x_label or y not in y_label or z not in z_label:
            return _fail(5, f"face {(x, y, z)} has a vertex outside the embedding image")
        relabeled.add(frozenset({x_label[x], y_label[y], z_label[z]}))

    if relabeled != target.canonical_subdivision.faces:
        return _fail(5, "relabeled faces differ from the canonical glued subdivision")

    # (6) v1_map's keys are exactly the original vertices, isolated ones
    # included (no face shows those), and it sends them into Y
    if set(emb.v1_map) != set(aux.v1):
        return _fail(6, f"v1_map does not map exactly the target vertices 0..{target.v - 1}")
    for v, y in emb.v1_map.items():
        if not 0 <= y < host.n_y:
            return _fail(6, f"v1_map sends vertex {v} to {y}, outside Y = [0, {host.n_y})")

    return VerifyResult(passed=True)
