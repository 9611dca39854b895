"""Stage-tagged failures of the homeomorph-finding pipeline."""

from __future__ import annotations


class PipelineError(Exception):
    """A pipeline stage could not make progress; carries the stage tag."""

    stage = "pipeline"


class CapacityExceeded(PipelineError):
    """The host is too small for the target's glued subdivision at this K."""

    stage = "capacity"


class NoQualifyingVertex(PipelineError):
    stage = "pick_link_vertex"


class NoQualifyingX(PipelineError):
    stage = "select_core_set"


class CliqueNotFound(PipelineError):
    stage = "find_complete_subgraph"


class RetriesExhausted(PipelineError):
    """No V2 placement was found; the message says which of three reasons.

    No injective placement exists (Hall's condition fails), no admissible one
    with distinct disk centers exists (the search was exhaustive), or the
    search spent its node budget.
    """

    stage = "embed_v2"

