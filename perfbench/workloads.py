"""The benchmark's workloads: inputs from a seed, set-up, replay, checks.

Every workload is a closed loop with one caller: a fresh runtime is set
up, one trace is replayed through it, and the next repetition starts
when that replay returns.  The program only ever sees the generated
trace; the seed stays on this side.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.common import units
from repro.experiments.bench import STREAMING_CHUNK
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.obs.recorder import FlightRecorder
from repro.workloads import WORKLOADS as MODELS
from repro.workloads.trace import generate_hot_mix_stream

# Hot-mix shape (the committed runtime-bench hot-mix case).
HOT_LINES = 16384               # 1 MiB hot set
COLD_FRACTION = 0.002
REGION_MB = 192
WRITE_FRACTION = 0.3

# Runtime shape shared by every workload.
VFMEM_MB = 256
SLAB_MB = 16
APP_NS_PER_ACCESS = 70.0
MODEL_WINDOWS = 4               # >= 160k accesses for page-rank and tpcc


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``perfbench/README.md``)."""

    name: str
    model: str                  # "hot-mix" or a repro.workloads model
    accesses: int
    fmem_mb: int
    streamed: bool = False      # columnar file, run_trace_stream chunks
    warmed: bool = False        # untimed hot-set sweep before the replay
    tracing: bool = False       # the program's span tracer is on


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("hot-stream", "hot-mix", 4_000_000, 64, streamed=True,
             warmed=True),
    Workload("pagerank-miss", "page-rank", 150_000, 8),
    Workload("tpcc-writeback", "voltdb-tpcc", 150_000, 8),
    Workload("pagerank-traced", "page-rank", 50_000, 8, tracing=True),
)}


@dataclass
class Inputs:
    """A generated trace, ready to bind to a runtime."""

    memory_bytes: int
    addrs: Optional[np.ndarray] = None      # region-relative, in memory
    writes: Optional[np.ndarray] = None
    columnar: Optional[object] = None       # ColumnarTrace when streamed


def make_inputs(w: Workload, seed: int, workdir: str) -> Inputs:
    """Generate ``w``'s trace for ``seed`` (streamed ones to a columnar
    file under ``workdir``)."""
    n = w.accesses
    if w.streamed:
        path = os.path.join(workdir, f"{w.name}.trace")
        shutil.rmtree(path, ignore_errors=True)
        columnar = generate_hot_mix_stream(
            path, n, hot_lines=HOT_LINES, cold_fraction=COLD_FRACTION,
            region_bytes=REGION_MB * units.MB,
            write_fraction=WRITE_FRACTION, seed=seed,
            chunk_size=STREAMING_CHUNK)
        return Inputs(columnar.memory_bytes, columnar=columnar)
    model = MODELS[w.model]()
    trace = model.generate(windows=MODEL_WINDOWS, seed=seed)
    if len(trace) < n:
        raise ValueError(f"{w.model} seed {seed}: trace has {len(trace)} "
                         f"accesses, workload needs {n}")
    return Inputs(model.memory_bytes, addrs=trace.addrs[:n].astype(np.int64),
                  writes=trace.writes[:n].copy())


def build_runtime(w: Workload, tracing: Optional[bool] = None
                  ) -> KonaRuntime:
    """A fresh runtime; ``tracing`` overrides the workload's tracer."""
    cfg = KonaConfig(fmem_capacity=w.fmem_mb * units.MB,
                     vfmem_capacity=VFMEM_MB * units.MB,
                     slab_bytes=SLAB_MB * units.MB)
    on = w.tracing if tracing is None else tracing
    return KonaRuntime(cfg, app_ns_per_access=APP_NS_PER_ACCESS,
                       recorder=FlightRecorder(tracing=True) if on else None)


@dataclass
class Prepared:
    """A runtime set up and ready for exactly one replay."""

    rt: KonaRuntime
    replay: Callable[[], object]            # -> ExecutionReport
    before: Dict[str, float]                # counters after set-up
    phases: Dict[str, float]                # set-up seconds by phase


def prepare(w: Workload, seed: int, workdir: str, engine: str = "batched",
            tracing: Optional[bool] = None) -> Prepared:
    """Set ``w`` up: generate the trace, build the runtime, map the
    region and run the warm-up sweep, timing each phase."""
    t0 = time.perf_counter()
    inputs = make_inputs(w, seed, workdir)
    t1 = time.perf_counter()
    rt = build_runtime(w, tracing)
    base = rt.mmap(inputs.memory_bytes).start
    if inputs.columnar is not None:
        columnar = inputs.columnar

        def replay():
            return rt.run_trace_stream(columnar.iter_chunks(STREAMING_CHUNK),
                                       engine=engine, base=base)
    else:
        addrs = inputs.addrs + np.int64(base)
        writes = inputs.writes

        def replay():
            return rt.run_trace(addrs, writes, engine=engine)
    t2 = time.perf_counter()
    if w.warmed:
        warm = np.arange(HOT_LINES, dtype=np.int64) * units.CACHE_LINE
        rt.run_trace(warm + np.int64(base), np.zeros(HOT_LINES, dtype=bool),
                     engine=engine)
    t3 = time.perf_counter()
    return Prepared(rt, replay, counters(rt),
                    {"trace_s": t1 - t0, "build_s": t2 - t1,
                     "warmup_s": t3 - t2})


def counters(rt: KonaRuntime) -> Dict[str, float]:
    """The runtime's cumulative counters, flat; subtract two snapshots
    to get what one replay did."""
    flat: Dict[str, float] = {}
    for prefix, bag in (("runtime", rt.counters),
                        ("agent", rt.agent.counters),
                        ("directory", rt.agent.directory.counters),
                        ("fmem", rt.fmem.counters),
                        ("eviction", rt.eviction.counters)):
        for key, value in bag.as_dict().items():
            flat[f"{prefix}.{key}"] = value
    ev = rt.eviction.stats
    for key in ("pages_evicted", "clean_pages", "full_page_writes",
                "lines_logged", "wire_bytes"):
        flat[f"stats.{key}"] = getattr(ev, key)
    flat["stats.elapsed_ns"] = ev.elapsed_ns
    flat["bytes_fetched"] = (rt.agent.counters["remote_fetches"]
                             * rt.config.fetch_block)
    return flat


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    """``after - before`` per key (missing keys count as zero)."""
    return {key: after.get(key, 0) - before.get(key, 0)
            for key in set(after) | set(before)}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was counted."""
    return num / den if den else 0.0


def front_hit_ratio(d: Dict[str, float]) -> float:
    """Share of replayed accesses the CPU-side front cache resolved."""
    hits = d.get("runtime.cache_hits", 0)
    return ratio(hits, hits + d.get("runtime.cache_misses", 0))


def clean_frac(d: Dict[str, float]) -> float:
    """Share of evicted pages dropped silently (no dirty line)."""
    return ratio(d.get("stats.clean_pages", 0),
                 d.get("stats.pages_evicted", 0))


def character_problems(w: Workload, d: Dict[str, float], accesses: int,
                       span_events: int = 0, dropped: int = 0,
                       reference: Optional[Dict[str, float]] = None
                       ) -> List[str]:
    """Why ``w`` no longer does what it is named for (empty: it does).

    ``d`` is the replay's counter delta; ``reference`` is
    pagerank-miss's delta on the same seed (tpcc-writeback only).
    """
    problems = []
    hit = front_hit_ratio(d)
    if w.name == "hot-stream":
        if hit < 0.98:
            problems.append(f"front hit ratio {hit:.4f} < 0.98")
        pages = d.get("stats.pages_evicted", 0)
        if pages >= 0.01 * accesses:
            problems.append(f"{pages} pages evicted >= 1% of accesses")
    elif w.name == "pagerank-miss":
        if hit > 0.01:
            problems.append(f"front hit ratio {hit:.4f} > 0.01")
        if clean_frac(d) < 0.8:
            problems.append(f"clean eviction share {clean_frac(d):.3f} "
                            f"< 0.8")
    elif w.name == "tpcc-writeback":
        if reference is None:
            raise ValueError("tpcc-writeback needs pagerank-miss's delta")
        for key in ("stats.lines_logged", "stats.wire_bytes"):
            if d.get(key, 0) <= reference.get(key, 0):
                problems.append(f"{key} {d.get(key, 0)} not above "
                                f"pagerank-miss's {reference.get(key, 0)}")
    elif w.name == "pagerank-traced":
        if span_events <= 0:
            problems.append("the program's tracer recorded no span events")
        if dropped:
            problems.append(f"the program's tracer dropped {dropped} events")
    return problems
