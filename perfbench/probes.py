"""Per-layer spans and counts, taken by wrapping the package's functions.

Nothing in the package is edited.  A probe names a function by module and
attribute; installing it replaces that binding, and for ``scope="all"`` every
other ``levelarr`` module's binding of the same object too (``cli`` and
``expansion`` import ``char_poly`` by name, for instance).  ``scope="own"``
wraps only the named module's binding: ``regions._feasible_system`` and
``exactmath._feasible_system`` are one function, but the first binding is the
split test of region enumeration and the second the cone-span LP.

Each wrapped call is a span: its time, its self time (time not covered by a
wrapped call inside it) and the span it was called from.  A probe whose target
no longer exists is reported as absent and its metrics read 0; it does not
stop the run.  Nor does an observer that no longer fits the package's
internals: it is reported as broken.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class Probe:
    """One wrapped function.  ``span`` groups probes into one reported layer."""

    span: str
    module: str
    attr: str  # "Class.method" for a method
    scope: str = "all"
    before: Optional[Callable] = None  # (tracer, args) -> None
    after: Optional[Callable] = None  # (tracer, args, result) -> None


@dataclass
class Tracer:
    spans: dict = field(default_factory=lambda: defaultdict(Span))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    maxima: dict = field(default_factory=lambda: defaultdict(int))
    stack: list = field(default_factory=list)  # [span name, child seconds]
    phase: int = 1
    absent: list = field(default_factory=list)
    broken: list = field(default_factory=list)  # observers that raised
    _undo: list = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        self.stack.clear()
        self.phase = 1

    def wrap(self, probe: Probe, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if probe.before is not None:
                tracer.observe(probe, probe.before, args)
            frame = [probe.span, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                span = tracer.spans[probe.span]
                span.calls += 1
                # A span inside a span of the same name adds calls, not time.
                if not any(f[0] == probe.span for f in tracer.stack):
                    span.seconds += elapsed
                    span.self_seconds += elapsed - frame[1]
            if probe.after is not None:
                tracer.observe(probe, probe.after, args, result)
            return result
        return wrapper

    def observe(self, probe: Probe, observer, *args) -> None:
        """Run an observer; one that no longer fits the package is reported, not raised."""
        try:
            observer(self, *args)
        except (AttributeError, TypeError, IndexError, KeyError):
            name = f"{probe.module}.{probe.attr}"
            if name not in self.broken:
                self.broken.append(name)

    def install(self, probes: list[Probe]) -> None:
        self.absent = []
        for probe in probes:
            module = sys.modules.get(probe.module)
            owner_name, _, name = probe.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            target = getattr(owner, name, None) if owner is not None else None
            if target is None:
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            wrapped = self.wrap(probe, target)
            owners = [owner]
            if probe.scope == "all" and not owner_name:
                owners = [
                    mod for key, mod in sorted(sys.modules.items())
                    if key.split(".")[0] == "levelarr" and getattr(mod, name, None) is target
                ]
            for o in owners:
                self._undo.append((o, name, target))
                setattr(o, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, target = self._undo.pop()
            setattr(owner, name, target)


# --- observers -------------------------------------------------------------


def _flats(tracer, args, result) -> None:
    tracer.counts["poset.flats"] += len(result)


def _regions(tracer, args, result) -> None:
    tracer.counts["regions.regions"] += len(result)


def _split(tracer, args, result) -> None:
    tracer.counts["regions.splits_found"] += result is not None


def _fm_rows(tracer, args, result) -> None:
    tracer.maxima["exactmath.fm_peak_rows"] = max(tracer.maxima["exactmath.fm_peak_rows"], len(result))


def _simplex_enter(tracer, args) -> None:
    tracer.phase = 1
    if tracer.stack and tracer.stack[-1][0] == "exactmath.fm":
        tracer.counts["exactmath.fm_reroutes"] += 1


def _minimize_enter(tracer, args) -> None:
    # Phase 2 minimizes the last objective added to the tableau; an earlier
    # objective is a phase-1 (feasibility) objective.  A tableau with a single
    # objective, as a warm-started simplex would have, is all phase 2.
    tableau, obj_index = args[0], args[1]
    objs = getattr(tableau, "objs", None)
    tracer.phase = 2 if objs is None or obj_index == len(objs) - 1 else 1


def _pivot_enter(tracer, args) -> None:
    tableau, r, c = args[0], args[1], args[2]
    tracer.counts[f"exactmath.pivots_phase{tracer.phase}"] += 1
    bits = abs(tableau.rows[r][c]).bit_length()
    tracer.maxima["exactmath.max_pivot_bits"] = max(tracer.maxima["exactmath.max_pivot_bits"], bits)


def _points(tracer, args, result) -> None:
    arr, q = args[0], args[1]
    tracer.counts["ffcount.points"] += q ** arr.dim


def _prime_plan(tracer, args, result) -> None:
    rows = result.rows()
    tracer.counts["ffcount.primes_scanned"] += len(rows)
    tracer.counts["ffcount.primes_agree"] += sum(count == value for _, count, value in rows)


PROBES = [
    Probe("document.parse", "levelarr.document", "loads_document"),
    Probe("poset.build", "levelarr.poset", "build_poset", after=_flats),
    Probe("poset.reduce", "levelarr.poset", "_reduce", scope="own"),
    Probe("regions.enumerate", "levelarr.regions", "enumerate_regions", after=_regions),
    Probe("regions.split", "levelarr.regions", "_feasible_system", scope="own", after=_split),
    Probe("exactmath.cone_span", "levelarr.exactmath", "cone_span_dimension"),
    Probe("exactmath.cone_lp", "levelarr.exactmath", "_feasible_system", scope="own"),
    Probe("exactmath.fm", "levelarr.exactmath", "_fm_witness", scope="own"),
    Probe("exactmath.fm_dedup", "levelarr.exactmath", "_dedup", scope="own", after=_fm_rows),
    Probe("exactmath.simplex", "levelarr.exactmath", "_simplex_witness", scope="own", before=_simplex_enter),
    Probe("exactmath.minimize", "levelarr.exactmath", "_IntTableau.minimize", before=_minimize_enter),
    Probe("exactmath.pivot", "levelarr.exactmath", "_IntTableau.pivot", before=_pivot_enter),
    Probe("expansion.verify", "levelarr.expansion", "verify_type_a_expansion"),
    Probe("expansion.verify", "levelarr.expansion", "verify_type_b_expansion"),
    Probe("ffcount.check", "levelarr.ffcount", "ff_oracle_check", after=_prime_plan),
    Probe("ffcount.count", "levelarr.ffcount", "count_complement_points", scope="own", after=_points),
]

# Workloads on which each probe fires at the commit that defined the benchmark.
FIRES_ON = {
    "document.parse": ("lowdim_levels", "simplex_levels", "poset_oracles"),
    "poset.build": ("lowdim_levels", "poset_oracles"),
    "poset.reduce": ("lowdim_levels", "poset_oracles"),
    "regions.enumerate": ("lowdim_levels", "simplex_levels"),
    "regions.split": ("lowdim_levels", "simplex_levels"),
    "exactmath.cone_span": ("lowdim_levels", "simplex_levels"),
    "exactmath.cone_lp": ("lowdim_levels", "simplex_levels"),
    "exactmath.fm": ("lowdim_levels",),
    "exactmath.fm_dedup": ("lowdim_levels",),
    "exactmath.simplex": ("simplex_levels",),
    "exactmath.minimize": ("simplex_levels",),
    "exactmath.pivot": ("simplex_levels",),
    "expansion.verify": ("lowdim_levels",),
    "ffcount.check": ("poset_oracles",),
    "ffcount.count": ("poset_oracles",),
}

# name -> (unit, kind, source); kind "time" is a median over traced batches,
# "count" must repeat exactly from batch to batch.
METRICS = {
    "document.parse_s": ("s", "time", ("seconds", "document.parse")),
    "document.parse_calls": ("count", "count", ("calls", "document.parse")),
    "poset.build_s": ("s", "time", ("seconds", "poset.build")),
    "poset.build_calls": ("count", "count", ("calls", "poset.build")),
    "poset.flats": ("count", "count", ("count", "poset.flats")),
    "poset.reduce_calls": ("count", "count", ("calls", "poset.reduce")),
    "poset.reduce_s": ("s", "time", ("seconds", "poset.reduce")),
    "poset.self_s": ("s", "time", ("self", "poset.build")),
    "regions.enumerate_s": ("s", "time", ("seconds", "regions.enumerate")),
    "regions.regions": ("count", "count", ("count", "regions.regions")),
    "regions.split_tests": ("count", "count", ("calls", "regions.split")),
    "regions.split_s": ("s", "time", ("seconds", "regions.split")),
    "regions.split_yield": ("1", "count", ("ratio", "regions.splits_found", ("calls", "regions.split"))),
    "exactmath.cone_span_s": ("s", "time", ("seconds", "exactmath.cone_span")),
    "exactmath.cone_span_calls": ("count", "count", ("calls", "exactmath.cone_span")),
    "exactmath.cone_lps": ("count", "count", ("calls", "exactmath.cone_lp")),
    "exactmath.fm_calls": ("count", "count", ("calls", "exactmath.fm")),
    "exactmath.fm_s": ("s", "time", ("seconds", "exactmath.fm")),
    "exactmath.fm_peak_rows": ("count", "count", ("max", "exactmath.fm_peak_rows")),
    "exactmath.fm_reroutes": ("count", "count", ("count", "exactmath.fm_reroutes")),
    "exactmath.simplex_calls": ("count", "count", ("calls", "exactmath.simplex")),
    "exactmath.simplex_s": ("s", "time", ("seconds", "exactmath.simplex")),
    "exactmath.pivots_phase1": ("count", "count", ("count", "exactmath.pivots_phase1")),
    "exactmath.pivots_phase2": ("count", "count", ("count", "exactmath.pivots_phase2")),
    "exactmath.max_pivot_bits": ("bits", "count", ("max", "exactmath.max_pivot_bits")),
    "expansion.verify_s": ("s", "time", ("seconds", "expansion.verify")),
    "expansion.self_s": ("s", "time", ("self", "expansion.verify")),
    "ffcount.count_s": ("s", "time", ("seconds", "ffcount.count")),
    "ffcount.points": ("count", "count", ("count", "ffcount.points")),
    "ffcount.primes_scanned": ("count", "count", ("count", "ffcount.primes_scanned")),
    "ffcount.primes_agree_ratio": ("1", "count", ("ratio", "ffcount.primes_agree", ("count", "ffcount.primes_scanned"))),
}


def _value(tracer: Tracer, source) -> float:
    kind, key = source[0], source[1]
    if kind == "calls":
        return tracer.spans[key].calls if key in tracer.spans else 0
    if kind == "seconds":
        return tracer.spans[key].seconds if key in tracer.spans else 0.0
    if kind == "self":
        return tracer.spans[key].self_seconds if key in tracer.spans else 0.0
    if kind == "max":
        return tracer.maxima.get(key, 0)
    if kind == "count":
        return tracer.counts.get(key, 0)
    numerator = tracer.counts.get(key, 0)
    denominator = _value(tracer, source[2])
    return numerator / denominator if denominator else 0.0


def snapshot(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the batch just traced."""
    return {name: _value(tracer, source) for name, (_, _, source) in METRICS.items()}


def silent(tracer: Tracer, workload: str) -> list[str]:
    """Present probes that should fire on ``workload`` but did not."""
    absent_spans = {p.span for p in PROBES if f"{p.module}.{p.attr}" in tracer.absent}
    return [
        span for span, workloads in FIRES_ON.items()
        if workload in workloads and span not in absent_spans
        and tracer.spans.get(span, Span()).calls == 0
    ]
