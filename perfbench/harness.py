"""Measurement loop, correctness gate and metrics of the benchmark.

One invocation measures one workload.  Repetitions run back to back
until ``seconds`` have passed (at least :data:`MIN_REPS`); each sets up
a fresh runtime (timed as set-up) and replays the trace once (timed as
the replay).  Host timings come from untraced repetitions.  With
``trace`` on, every second repetition replays with the layer entry
points wrapped (:mod:`perfbench.spans`), and the per-layer metrics are
medians over those traced repetitions.

After the timed loop the peak RSS is read, and then — untimed — the
scalar oracle replays the same trace once.  Every repetition's
``runtime_fingerprint`` must equal the oracle's; a repetition that
raised or differs counts as failed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.bench import runtime_fingerprint

from .spans import CHUNK_SPAN, READ_SPAN, SpanRecorder, instrument, \
    self_times
from .workloads import WORKLOADS, Workload, character_problems, \
    clean_frac, counters, delta, front_hit_ratio, prepare, ratio

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "maccess_per_s": "Maccess/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_ns_per_access": "ns",
    "net_bytes_per_access": "B",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {
    # coherence.vectorized
    "front.classify_s": "s",
    "front.classify_calls": "count",
    "front.bulk_hits_s": "s",
    "front.bulk_hits_calls": "count",
    "front.hit_ratio": "ratio",
    # chunk round trip and workloads.trace
    "front.roundtrip_s": "s",
    "front.roundtrips": "count",
    "trace.read_s": "s",
    "stream.chunk_ms_p50": "ms",
    # kona.engine
    "engine.self_s": "s",
    "engine.drain_page_s": "s",
    "engine.drain_pages": "count",
    "engine.flush_s": "s",
    # coherence.directory
    "directory.gets_shared": "count",
    "directory.gets_modified": "count",
    "directory.snoops": "count",
    "directory.snoop_useful_ratio": "ratio",
    # fpga: FMem and the memory agent
    "fmem.hit_ratio": "ratio",
    "fmem.evictions": "count",
    "agent.remote_fetches": "count",
    "agent.proactive_reclaims": "count",
    "runtime.maybe_evict_s": "s",
    # kona.eviction and the RDMA log
    "eviction.evict_page_s": "s",
    "eviction.flush_node_s": "s",
    "eviction.flushes": "count",
    "eviction.pages": "count",
    "eviction.clean_frac": "ratio",
    "eviction.lines_logged": "count",
    "eviction.full_page_writes": "count",
    "eviction.wire_bytes": "B",
    "eviction.sim_background_ms": "ms",
    # obs: the program's own span tracer
    "obs.span_events": "count",
    "obs.dropped": "count",
    "obs.chrome_export_s": "s",
    # set-up and the benchmark itself
    "setup.trace_s": "s",
    "setup.build_s": "s",
    "setup.warmup_s": "s",
    "bench.trace_overhead": "x",
    "bench.failed_frac": "ratio",
}

#: Spans whose self time is the engine's own replay loop.
ENGINE_SPANS = ("runtime.run_trace", "runtime.run_trace_stream", CHUNK_SPAN)

MIN_REPS = 3

#: Printed with every artifact: no measured reference exists for these.
MODEL_NOTE = ("sim_ns_per_access and net_bytes_per_access are modelled "
              "quantities, unvalidated against hardware (no measured "
              "reference at these sizes); they are drift guards and carry "
              "no error figure")


@dataclass
class Rep:
    """One repetition: set-up, one replay, what it did."""

    setup_s: float
    replay_s: float
    phases: Dict[str, float]
    delta: Dict[str, float]
    accesses: int
    elapsed_ns: float
    fingerprint: Dict[str, object]
    traced: bool = False
    span_events: int = 0
    dropped: int = 0
    chrome_export_s: float = 0.0


@dataclass
class Outcome:
    """What one invocation measured and whether it was correct."""

    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, float]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def count_failures(fingerprints: Sequence[Optional[Dict[str, object]]],
                   oracle: Dict[str, object]) -> int:
    """Repetitions that raised (``None``) or differ from the oracle."""
    return sum(1 for fp in fingerprints if fp is None or fp != oracle)


def run_rep(w: Workload, seed: int, workdir: str,
            recorder: Optional[SpanRecorder] = None) -> Rep:
    """Set up and replay once; wrap the layers when ``recorder`` is set."""
    t0 = time.perf_counter()
    prepared = prepare(w, seed, workdir)
    t1 = time.perf_counter()
    with instrument(recorder) if recorder is not None else nullcontext():
        t2 = time.perf_counter()
        report = prepared.replay()
        t3 = time.perf_counter()
    rt = prepared.rt
    rep = Rep(setup_s=t1 - t0, replay_s=t3 - t2, phases=prepared.phases,
              delta=delta(counters(rt), prepared.before),
              accesses=report.accesses, elapsed_ns=report.elapsed_ns,
              fingerprint=runtime_fingerprint(rt, report),
              traced=recorder is not None,
              span_events=len(rt.obs.tracer.events),
              dropped=rt.obs.tracer.dropped)
    if recorder is not None and rt.obs.tracer.enabled:
        t4 = time.perf_counter()
        rt.obs.chrome_trace()
        rep.chrome_export_s = time.perf_counter() - t4
    return rep


def oracle_fingerprint(w: Workload, seed: int, workdir: str
                       ) -> Dict[str, object]:
    """The scalar engine's fingerprint on the same trace, tracing off."""
    prepared = prepare(w, seed, workdir, engine="scalar", tracing=False)
    return runtime_fingerprint(prepared.rt, prepared.replay())


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(rep: Rep, spans: List[list], selfs: List[int]
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition from its spans
    (``selfs`` parallel to ``spans``) and its counter delta."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    chunk_ms = []
    for row, own in zip(spans, selfs):
        name = row[0]
        self_s[name] = self_s.get(name, 0.0) + own / 1e9
        calls[name] = calls.get(name, 0) + 1
        if name == CHUNK_SPAN:
            chunk_ms.append((row[2] - row[1]) / 1e6)
    d = rep.delta
    fm_hits = d.get("fmem.hits", 0)
    return {
        "front.classify_s": self_s.get("front.classify", 0.0),
        "front.classify_calls": calls.get("front.classify", 0),
        "front.bulk_hits_s": self_s.get("front.bulk_hits", 0.0),
        "front.bulk_hits_calls": calls.get("front.bulk_hits", 0),
        "front.hit_ratio": front_hit_ratio(d),
        "front.roundtrip_s": (self_s.get("front.from_scalar", 0.0)
                              + self_s.get("front.export_to", 0.0)),
        "front.roundtrips": calls.get("front.from_scalar", 0),
        "trace.read_s": self_s.get(READ_SPAN, 0.0),
        "stream.chunk_ms_p50": (statistics.median(chunk_ms)
                                if chunk_ms else 0.0),
        "engine.self_s": sum(self_s.get(n, 0.0) for n in ENGINE_SPANS),
        "engine.drain_page_s": self_s.get("engine.drain_page", 0.0),
        "engine.drain_pages": calls.get("engine.drain_page", 0),
        "engine.flush_s": self_s.get("engine.flush", 0.0),
        "directory.gets_shared": d.get("directory.get_s", 0),
        "directory.gets_modified": d.get("directory.get_m", 0),
        "directory.snoops": d.get("directory.snoops", 0),
        "directory.snoop_useful_ratio": ratio(
            d.get("agent.lines_snooped", 0), d.get("directory.snoops", 0)),
        "fmem.hit_ratio": ratio(fm_hits, fm_hits + d.get("fmem.fills", 0)),
        "fmem.evictions": (d.get("fmem.evictions", 0)
                           + d.get("fmem.proactive_evictions", 0)),
        "agent.remote_fetches": d.get("agent.remote_fetches", 0),
        "agent.proactive_reclaims": d.get("agent.proactive_reclaims", 0),
        "runtime.maybe_evict_s": self_s.get("runtime.maybe_evict", 0.0),
        "eviction.evict_page_s": self_s.get("eviction.evict_page", 0.0),
        "eviction.flush_node_s": self_s.get("eviction.flush_node", 0.0),
        "eviction.flushes": d.get("eviction.log_flushes", 0),
        "eviction.pages": d.get("stats.pages_evicted", 0),
        "eviction.clean_frac": clean_frac(d),
        "eviction.lines_logged": d.get("stats.lines_logged", 0),
        "eviction.full_page_writes": d.get("stats.full_page_writes", 0),
        "eviction.wire_bytes": d.get("stats.wire_bytes", 0),
        "eviction.sim_background_ms": d.get("stats.elapsed_ns", 0) / 1e6,
        "obs.span_events": rep.span_events,
        "obs.dropped": rep.dropped,
        "obs.chrome_export_s": rep.chrome_export_s,
    }


def span_table(spans: List[list], selfs: List[int]
               ) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self milliseconds."""
    table: Dict[str, Dict[str, float]] = {}
    for row, own in zip(spans, selfs):
        entry = table.setdefault(row[0], {"calls": 0, "total_ms": 0.0,
                                          "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += (row[2] - row[1]) / 1e6
        entry["self_ms"] += own / 1e6
    return table


def group_by_run(spans: List[list], selfs: List[int]
                 ) -> Dict[int, Tuple[List[list], List[int]]]:
    """Split spans and their self times by run id."""
    runs: Dict[int, Tuple[List[list], List[int]]] = {}
    for row, own in zip(spans, selfs):
        rows, owns = runs.setdefault(row[4], ([], []))
        rows.append(row)
        owns.append(own)
    return runs


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            workdir: str, outdir: Optional[str] = None) -> Outcome:
    """Run the closed loop for ``seconds``, then the correctness gate."""
    recorder = SpanRecorder() if trace else None
    reps: List[Optional[Rep]] = []
    deadline = time.perf_counter() + seconds
    min_reps = 2 * MIN_REPS if trace else MIN_REPS
    while len(reps) < min_reps or time.perf_counter() < deadline:
        traced = trace and len(reps) % 2 == 1
        if traced:
            recorder.run_id = len(reps)
        try:
            reps.append(run_rep(w, seed, workdir,
                                recorder if traced else None))
        except Exception:      # a failed repetition is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            reps.append(None)
        gc.collect()
    rss = peak_rss_mb()

    problems: List[str] = []
    oracle = oracle_fingerprint(w, seed, workdir)
    failed = count_failures([r and r.fingerprint for r in reps], oracle)
    if failed:
        problems.append(f"{failed} of {len(reps)} repetitions raised or "
                        f"differ from the scalar oracle")
    ok = [r for r in reps if r is not None]
    untraced = [r for r in ok if not r.traced]
    traced_reps = [r for r in ok if r.traced]
    if not untraced:
        return Outcome(len(reps), failed, problems or ["no repetition ran"],
                       {})

    first = untraced[0]
    reference = None
    if w.name == "tpcc-writeback":
        reference = run_rep(WORKLOADS["pagerank-miss"], seed, workdir).delta
    if w.tracing:
        plain = prepare(w, seed, workdir, tracing=False)
        if runtime_fingerprint(plain.rt, plain.replay()) != first.fingerprint:
            problems.append("traced replay differs from the same trace "
                            "replayed untraced (pagerank-miss)")
    problems += character_problems(w, first.delta, first.accesses,
                                   first.span_events, first.dropped,
                                   reference)

    if not trace:
        metrics = {
            "maccess_per_s": first.accesses / _median(
                [r.replay_s for r in untraced]) / 1e6,
            "setup_s": _median([r.setup_s for r in untraced]),
            "peak_rss_mb": rss,
            "sim_ns_per_access": first.elapsed_ns / first.accesses,
            "net_bytes_per_access": (first.delta["bytes_fetched"]
                                     + first.delta["stats.wire_bytes"])
            / first.accesses,
        }
        return Outcome(len(reps), failed, problems, metrics)

    selfs = self_times(recorder.spans)
    by_run = group_by_run(recorder.spans, selfs)
    per_rep = [layer_metrics(r, *by_run.get(run_id, ([], [])))
               for run_id, r in enumerate(reps)
               if r is not None and r.traced]
    metrics = {name: _median([m[name] for m in per_rep])
               for name in per_rep[0]} if per_rep else {}
    for phase in ("trace_s", "build_s", "warmup_s"):
        metrics[f"setup.{phase}"] = _median([r.phases[phase] for r in ok])
    metrics["bench.trace_overhead"] = ratio(
        _median([r.replay_s for r in traced_reps]),
        _median([r.replay_s for r in untraced]))
    metrics["bench.failed_frac"] = failed / len(reps)
    if outdir is not None:
        write_artifacts(outdir, w, seed, recorder, by_run, metrics)
    return Outcome(len(reps), failed, problems, metrics)


def write_artifacts(outdir: str, w: Workload, seed: int,
                    recorder: SpanRecorder,
                    by_run: Dict[int, Tuple[List[list], List[int]]],
                    metrics: Dict[str, float]) -> str:
    """Write the traced run's spans and per-layer table; returns the
    directory.  ``spans.jsonl`` holds one ``[name, start_ns, end_ns,
    parent_index, run_id]`` row per line, in recording order."""
    path = os.path.join(outdir, f"{w.name}-seed{seed}")
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "spans.jsonl"), "w") as fh:
        for row in recorder.spans:
            fh.write(json.dumps(row))
            fh.write("\n")
    layers = {
        "workload": w.name,
        "seed": seed,
        "per_layer": {name: {"value": metrics.get(name), "unit": unit}
                      for name, unit in PER_LAYER.items()},
        "span_table_by_run": {str(run_id): span_table(*pair)
                              for run_id, pair in sorted(by_run.items())},
        "missing_entry_points": sorted(set(recorder.missing)),
        "note": MODEL_NOTE,
    }
    with open(os.path.join(path, "layers.json"), "w") as fh:
        json.dump(layers, fh, indent=2)
        fh.write("\n")
    return path
