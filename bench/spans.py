"""In-memory spans around homeofind's public functions, added from outside.

Nothing under ``src/`` is edited.  A function is traced by rebinding the
module attribute through which its caller looks it up (for example
``homeofind.embed.pick_link_vertex``, which ``find_homeomorph`` reads from
its module globals on every call), and the original is put back when the
traced pass ends.

Each span keeps its name, start, end, parent span and instance id.  A
layer's self time is its span's duration minus the time its child spans
cover; spans nest strictly because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

# Attribute set on an exception by the innermost traced function it left, so
# that a failure can be attributed to the function that raised it.
ORIGIN = "_bench_origin"


class Patches:
    """Module or class attributes replaced for a while, restored in reverse."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records spans and counters; ``instance`` tags the spans opened next."""

    def __init__(self):
        # [name, start, end, parent index or -1, instance id]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.instance = -1
        self.counts: Counter[str] = Counter()
        # (span name, origin span name, exception type) of every exception
        # that left a traced function
        self.raised: Counter[tuple[str, str, str]] = Counter()
        self.patches = Patches()

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.instance]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _leave(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        rec = self._enter(name)
        try:
            yield
        finally:
            self._leave(rec)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(result)`` may count."""

        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._leave(rec)
                if getattr(exc, ORIGIN, None) is None:
                    setattr(exc, ORIGIN, name)
                self.raised[(name, getattr(exc, ORIGIN), type(exc).__name__)] += 1
                raise
            self._leave(rec)
            if after is not None:
                after(result)
            return result

        return traced

    def trace(self, name: str, attr: str, owners, after=None) -> None:
        """Rebind ``attr`` on every owner to one traced copy of the original."""
        traced = self.wrap(name, getattr(owners[0], attr), after)
        for owner in owners:
            self.patches.set(owner, attr, traced)

    def duration(self, names) -> float:
        """Summed duration of the spans with one of these names."""
        return sum(end - start for name, start, end, _, _ in self.spans if name in names)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, number of spans)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += end - start - child[i]
            agg[1] += 1
        return {name: (s, n) for name, (s, n) in out.items()}


class NullTracer:
    """Stands in for a Tracer in untraced passes: records nothing."""

    instance = -1

    def span(self, name: str):
        return contextlib.nullcontext()


# (span name, attribute, owners) for every traced function.  Where a
# function is imported into several modules, each binding that a caller
# reads is rebound to the same traced copy.  The owner ``HostIndex`` is the
# class itself, so every index's ``link`` method is traced.
SPANS = [
    ("harness.gen_random_host", "gen_random_host", ["harness"]),
    ("io.parse_host", "parse_host", ["io"]),
    ("io.parse_certificate", "parse_certificate", ["io"]),
    ("io.write_certificate", "write_certificate", ["io", "harness"]),
    ("embed.find_homeomorph", "find_homeomorph", ["embed", "harness"]),
    ("links.HostIndex", "HostIndex", ["embed"]),
    ("links.pick_link_vertex", "pick_link_vertex", ["embed"]),
    ("links.HostIndex.link", "link", ["HostIndex"]),
    ("links.count_forbidden", "count_forbidden", ["links"]),
    ("embed.classify_pairs_triples", "classify_pairs_triples", ["embed"]),
    ("embed.select_core_set", "select_core_set", ["embed"]),
    ("embed.build_problem_graph", "build_problem_graph", ["embed"]),
    ("embed.find_complete_subgraph", "find_complete_subgraph", ["embed"]),
    ("embed.embed_v2", "embed_v2", ["embed"]),
    ("embed.assign_centers", "assign_centers", ["embed"]),
    ("embed.assert_valid_embedding", "assert_valid_embedding", ["embed"]),
    ("verify.verify_certificate", "verify_certificate", ["verify", "harness"]),
]


# Counts that instrument() makes from what the layers return.
HOOK_COUNTS = [
    "links.forbidden_cycles",
    "links.link_edges",
    "embed.pairs_classified",
    "embed.bad_pairs",
    "embed.core_size",
    "embed.bad_triples",
]


def instrument(tracer: Tracer, prog) -> None:
    """Trace every function in SPANS and count what the layers hand back.

    ``prog`` has the homeofind modules as attributes under the short names
    used in SPANS, and ``HostIndex``, the class.
    """
    counts = tracer.counts

    def on_pick(choice):
        counts["links.forbidden_cycles"] += choice.forbidden_count
        counts["links.link_edges"] += choice.link.e

    def on_classify(result):
        pair_stats, _ = result
        counts["embed.pairs_classified"] += len(pair_stats)
        counts["embed.bad_pairs"] += sum(1 for ps in pair_stats if not ps.good)

    def on_core(result):
        counts["embed.core_size"] += len(result[1])

    def on_problem(problem):
        counts["embed.bad_triples"] += len(problem.bad_triples)

    after = {
        "links.pick_link_vertex": on_pick,
        "embed.classify_pairs_triples": on_classify,
        "embed.select_core_set": on_core,
        "embed.build_problem_graph": on_problem,
    }
    for name, attr, owners in SPANS:
        tracer.trace(name, attr, [getattr(prog, o) for o in owners], after.get(name))
