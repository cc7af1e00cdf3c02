"""Differential tests: scalar vs batched ``run_trace`` engines.

The batched engine's acceptance bar is *bit-identity*: every counter
at every layer, the dirty bitmap, the time accounting and the report
must match the scalar oracle exactly — across workload models,
coherence protocols, prefetch policies, observability settings, and a
mid-trace node-failure campaign.  Miss-heavy traces, which the batched
engine replays through its fused miss lane, additionally compare
merged causal ``FaultLog`` aggregates with capture on, and hold across
monolithic vs streamed vs sharded replay.  With the span tracer on,
the recorded events, drops and stall histogram must match as well.
"""

import numpy as np
import pytest

import repro.common.units as u
from repro.coherence.vectorized import VectorizedCoherentCache
from repro.common.errors import AddressError, ConfigError, TranslationError
from repro.experiments.bench import (RUNTIME_QUICK_CASES, check_speedup,
                                     runtime_fingerprint)
from repro.experiments.chaos import (REGION_BYTES, build_chaos_runtime,
                                     chaos_stream)
from repro.experiments.shard import ShardSpec, make_shards, run_sharded
from repro.kona import engine as engine_mod
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.obs import FlightRecorder
from repro.workloads import WORKLOADS
from repro.workloads.trace import TRACE_DTYPE, Trace, save_columnar

N = 4_000


def build_runtime(recorder=None, **overrides):
    defaults = dict(fmem_capacity=8 * u.MB, vfmem_capacity=512 * u.MB,
                    slab_bytes=16 * u.MB)
    defaults.update(overrides)
    return KonaRuntime(KonaConfig(**defaults), app_ns_per_access=70.0,
                       recorder=recorder)


def hot_trace(n, region_bytes, seed=3, hot_lines=2048, cold=0.01):
    """Mostly CPU-cache hits with occasional cold lines (vector path)."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, hot_lines, size=n, dtype=np.int64)
    mask = rng.random(n) < cold
    lines[mask] = rng.integers(hot_lines, region_bytes // u.CACHE_LINE,
                               size=int(mask.sum()), dtype=np.int64)
    return lines * u.CACHE_LINE, rng.random(n) < 0.4


def run_pair(make_runtime, make_trace):
    """Run the same trace on both engines; return both fingerprints."""
    out = {}
    for engine in ("scalar", "batched"):
        rt = make_runtime()
        addrs, writes = make_trace(rt)
        report = rt.run_trace(addrs, writes, engine=engine)
        out[engine] = runtime_fingerprint(rt, report)
    return out


def assert_identical(make_runtime, make_trace):
    got = run_pair(make_runtime, make_trace)
    assert got["scalar"] == got["batched"]


def workload_trace(name, n=N):
    def make(rt):
        model = WORKLOADS[name]()
        trace = model.generate(windows=2, seed=7)
        region = rt.mmap(model.memory_bytes)
        m = min(n, len(trace))
        return trace.addrs[:m] + np.uint64(region.start), trace.writes[:m]
    return make


def mapped_hot_trace(n=N, **kwargs):
    def make(rt):
        region = rt.mmap(32 * u.MB)
        addrs, writes = hot_trace(n, 32 * u.MB, **kwargs)
        return addrs + np.int64(region.start), writes
    return make


class TestWorkloadModels:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_engines_identical(self, name):
        assert_identical(build_runtime, workload_trace(name))


class TestConfigurationMatrix:
    @pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
    def test_protocols(self, protocol):
        # MSI grants S on every read fill, so writes exercise the
        # upgrade path the vectorized front-end replays one by one.
        assert_identical(lambda: build_runtime(protocol=protocol),
                         mapped_hot_trace())

    @pytest.mark.parametrize("policy", ["none", "next-page", "stride",
                                        "leap"])
    def test_prefetch_policies(self, policy):
        assert_identical(lambda: build_runtime(prefetch_policy=policy),
                         workload_trace("redis-seq"))

    def test_eager_upgrade_tracking(self):
        assert_identical(
            lambda: build_runtime(protocol="msi",
                                  eager_upgrade_tracking=True),
            mapped_hot_trace())

    def test_tiny_fmem_eviction_pressure(self):
        # FMem far smaller than the footprint: page evictions snoop
        # resident CPU lines mid-batch (the mutation-patching path).
        assert_identical(
            lambda: build_runtime(fmem_capacity=1 * u.MB),
            workload_trace("redis-rand", n=8_000))

    def test_sampler_and_tracing(self):
        def make_rt():
            rec = FlightRecorder(tracing=True, sample_interval_ns=10_000.0)
            return build_runtime(recorder=rec)
        assert_identical(make_rt, mapped_hot_trace())

    def test_tsdb_sample_timelines_identical(self):
        # The time-series store is fed from the sampler on the sim
        # clock, so both engines must produce the same timeline:
        # same timestamps, same gauge values, point for point.
        stores = {}
        for engine in ("scalar", "batched"):
            rec = FlightRecorder(tracing=True, sample_interval_ns=10_000.0)
            rt = build_runtime(recorder=rec)
            region = rt.mmap(32 * u.MB)
            addrs, writes = hot_trace(N, 32 * u.MB)
            rt.run_trace(addrs + np.int64(region.start), writes,
                         engine=engine)
            stores[engine] = rec.tsdb.as_dict()
        assert stores["scalar"]
        assert stores["scalar"] == stores["batched"]


class TestEngineContract:
    def test_batched_is_default(self):
        rt = build_runtime()
        region = rt.mmap(32 * u.MB)
        addrs, writes = hot_trace(N, 32 * u.MB)
        rt.run_trace(addrs + np.int64(region.start), writes)
        twin = build_runtime()
        twin.mmap(32 * u.MB)
        twin.run_trace(addrs + np.int64(region.start), writes,
                       engine="batched")
        assert rt.counters.as_dict() == twin.counters.as_dict()

    def test_unknown_engine_rejected(self):
        rt = build_runtime()
        rt.mmap(32 * u.MB)
        with pytest.raises(ConfigError):
            rt.run_trace(np.zeros(1, dtype=np.int64),
                         np.zeros(1, dtype=bool), engine="warp")

    def test_run_workload_engines_identical(self):
        out = {}
        for engine in ("scalar", "batched"):
            rt = build_runtime()
            report = rt.run_workload(WORKLOADS["histogram"](), windows=2,
                                     seed=5, max_accesses=N, engine=engine)
            out[engine] = runtime_fingerprint(rt, report)
        assert out["scalar"] == out["batched"]

    def test_mid_trace_address_error_parity(self):
        # A wild address mid-trace: both engines execute every prior
        # access, raise AddressError, and leave identical state behind.
        state = {}
        for engine in ("scalar", "batched"):
            rt = build_runtime()
            region = rt.mmap(32 * u.MB)
            addrs, writes = hot_trace(2_000, 32 * u.MB)
            addrs = addrs + np.int64(region.start)
            addrs[1_500] = 7  # below every Kona mapping
            with pytest.raises(AddressError):
                rt.run_trace(addrs, writes, engine=engine)
            state[engine] = (rt.counters.as_dict(),
                             rt.cpu_cache.counters.as_dict(),
                             [list(s.items()) for s in rt.cpu_cache._sets])
        assert state["scalar"] == state["batched"]

    def test_removed_engine_name_rejected_before_work(self, tmp_path):
        # Only "batched" and "scalar" exist; a stale name fails up
        # front — before a streamed chunk is read or a shard's trace
        # is opened.
        stale = "coalesced"   # the deleted page-run replay engine
        rt = build_runtime()
        rt.mmap(32 * u.MB)
        with pytest.raises(ConfigError):
            rt.run_trace(np.zeros(1, dtype=np.int64),
                         np.zeros(1, dtype=bool), engine=stale)
        consumed = []

        def chunks():
            consumed.append(True)
            yield np.zeros(256, dtype=np.int64), np.zeros(256, dtype=bool)
        with pytest.raises(ConfigError):
            rt.run_trace_stream(chunks(), engine=stale)
        assert not consumed
        with pytest.raises(ConfigError):
            ShardSpec(str(tmp_path / "missing.trace"), 0, 1, engine=stale)

    def test_shape_mismatch_rejected(self):
        rt = build_runtime()
        with pytest.raises(ConfigError):
            rt.run_trace(np.zeros(4, dtype=np.int64),
                         np.zeros(3, dtype=bool))


class TestChaosCampaign:
    """Split-trace campaign: fail a replica mid-run, recover, compare."""

    @pytest.mark.parametrize("protocol", ["mesi", "moesi"])
    def test_node_failure_between_spans(self, protocol):
        out = {}
        for engine in ("scalar", "batched"):
            rt = build_chaos_runtime(seed=0, replication=2)
            region = rt.mmap(REGION_BYTES)
            addrs, writes = chaos_stream(region.start, 9_000, seed=4)
            spans = np.array_split(np.arange(addrs.size), 3)
            rt.run_trace(addrs[spans[0]], writes[spans[0]], engine=engine)
            rt.fabric.fail_node("mem0")
            rt.run_trace(addrs[spans[1]], writes[spans[1]], engine=engine)
            rt.fabric.recover_node("mem0")
            rt.recover()
            report = rt.run_trace(addrs[spans[2]], writes[spans[2]],
                                  engine=engine)
            out[engine] = runtime_fingerprint(rt, report)
        assert out["scalar"] == out["batched"]


# -- miss-heavy traces: the fused miss lane ----------------------------------

MISS_N = 6_000
MISS_REGION = 32 * u.MB


def build_miss_runtime(**overrides):
    defaults = dict(fmem_capacity=4 * u.MB, vfmem_capacity=256 * u.MB,
                    slab_bytes=16 * u.MB)
    defaults.update(overrides)
    return KonaRuntime(KonaConfig(**defaults), app_ns_per_access=70.0)


def miss_heavy_trace(n, seed, region_bytes=MISS_REGION, hot_lines=512,
                     cold=0.65, write_frac=0.4):
    """Mostly cold lines: the segments classify miss-heavy, so the
    batched engine replays them through the fused miss lane rather
    than hit patching."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, hot_lines, size=n, dtype=np.int64)
    mask = rng.random(n) < cold
    lines[mask] = rng.integers(hot_lines, region_bytes // u.CACHE_LINE,
                               size=int(mask.sum()), dtype=np.int64)
    return lines * u.CACHE_LINE, rng.random(n) < write_frac


def run_miss(engine, make_trace, capture=False, **overrides):
    """One engine over a miss-heavy trace: (fingerprint, FaultLog
    aggregate or None)."""
    rt = build_miss_runtime(**overrides)
    cap = rt.attach_causal_capture() if capture else None
    region = rt.mmap(MISS_REGION)
    addrs, writes = make_trace()
    report = rt.run_trace(addrs + np.int64(region.start), writes,
                          engine=engine)
    return (runtime_fingerprint(rt, report),
            cap.log.aggregate() if capture else None)


def assert_miss_identical(make_trace, capture=False, **overrides):
    got = {engine: run_miss(engine, make_trace, capture=capture,
                            **overrides)
           for engine in ("scalar", "batched")}
    assert got["batched"] == got["scalar"]


class TestMissHeavy:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_traces_identical(self, seed):
        assert_miss_identical(lambda: miss_heavy_trace(MISS_N, seed))

    @pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
    def test_protocols_identical(self, protocol):
        assert_miss_identical(lambda: miss_heavy_trace(MISS_N, 11),
                              protocol=protocol)

    @pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
    def test_capture_on_identical(self, protocol):
        # The lane records causal rows at its inlined fill sites;
        # aggregates must match the oracle's row for row.
        assert_miss_identical(lambda: miss_heavy_trace(MISS_N, 13),
                              capture=True, protocol=protocol)

    @pytest.mark.parametrize("name", ["page-rank", "voltdb-tpcc"])
    def test_workload_models_identical(self, name):
        got = {}
        for engine in ("scalar", "batched"):
            rt = build_miss_runtime(fmem_capacity=8 * u.MB)
            model = WORKLOADS[name]()
            trace = model.generate(windows=2, seed=7)
            region = rt.mmap(model.memory_bytes)
            m = min(MISS_N, len(trace))
            report = rt.run_trace(trace.addrs[:m] + np.uint64(region.start),
                                  trace.writes[:m], engine=engine)
            got[engine] = runtime_fingerprint(rt, report)
        assert got["batched"] == got["scalar"]

    def test_tiny_fmem_eviction_pressure(self):
        # FMem far below the footprint: page drains snoop lines the
        # lane filled earlier in the same replayed segment.
        assert_miss_identical(lambda: miss_heavy_trace(10_000, 17),
                              fmem_capacity=1 * u.MB)

    def test_msi_shared_copy_outlives_its_page(self):
        # Under MSI a read fill grants S; the S copy survives its FMem
        # page's drain, is upgraded to M while the page is away, and
        # must be snooped when the page is drained again.
        assert_miss_identical(lambda: miss_heavy_trace(MISS_N, 19),
                              protocol="msi", fmem_capacity=2 * u.MB)

    def test_sticky_miss_mode_skips_classification(self, monkeypatch):
        # A miss-heavy stretch, then a hot tail over the same hot lines.
        # While segments replay at near-zero hits the lane stays in
        # sticky miss mode and classification is skipped; the first
        # hot segment re-opens the gate.
        miss_n, tail_n = 8_192, 8_192
        rng = np.random.default_rng(43)
        miss_addrs, miss_writes = miss_heavy_trace(miss_n, 43)
        tail_addrs = rng.integers(0, 512, size=tail_n,
                                  dtype=np.int64) * u.CACHE_LINE
        addrs0 = np.concatenate([miss_addrs, tail_addrs])
        writes = np.concatenate([miss_writes, rng.random(tail_n) < 0.4])
        clocks = []
        classify = VectorizedCoherentCache.classify

        def counting(front, tags, w):
            clocks.append(front._clock)
            return classify(front, tags, w)
        monkeypatch.setattr(VectorizedCoherentCache, "classify", counting)
        got = {}
        for engine in ("scalar", "batched"):
            rt = build_miss_runtime()
            region = rt.mmap(MISS_REGION)
            report = rt.run_trace(addrs0 + np.int64(region.start), writes,
                                  engine=engine)
            got[engine] = runtime_fingerprint(rt, report)
        assert got["batched"] == got["scalar"]
        # Every call came from the batched run, whose clock starts at
        # the first access.
        start = clocks[0]
        in_miss = sum(1 for c in clocks if c - start < miss_n)
        in_tail = len(clocks) - in_miss
        segments = miss_n // 256
        assert in_miss <= segments // 8
        assert in_tail >= 1


class TestMissHeavyChaos:
    """Fail a replica mid-run under a miss-heavy trace, recover,
    compare the engines."""

    @staticmethod
    def _chaos_runtime():
        cfg = KonaConfig(fmem_capacity=4 * u.MB,
                         vfmem_capacity=64 * u.MB,
                         slab_bytes=16 * u.MB,
                         replication_factor=2,
                         retry_seed=0)
        rt = KonaRuntime(cfg, num_memory_nodes=2, app_ns_per_access=70.0)
        rt.failures.coherence_timeout_ns = 10_000.0
        return rt

    @pytest.mark.parametrize("capture", [False, True])
    def test_node_failure_between_spans(self, capture):
        out = {}
        for engine in ("scalar", "batched"):
            rt = self._chaos_runtime()
            cap = rt.attach_causal_capture() if capture else None
            region = rt.mmap(16 * u.MB)
            addrs, writes = miss_heavy_trace(9_000, 23,
                                             region_bytes=16 * u.MB)
            addrs = addrs + np.int64(region.start)
            spans = np.array_split(np.arange(addrs.size), 3)
            rt.run_trace(addrs[spans[0]], writes[spans[0]], engine=engine)
            rt.fabric.fail_node("mem0")
            rt.run_trace(addrs[spans[1]], writes[spans[1]], engine=engine)
            rt.fabric.recover_node("mem0")
            rt.recover()
            report = rt.run_trace(addrs[spans[2]], writes[spans[2]],
                                  engine=engine)
            out[engine] = (runtime_fingerprint(rt, report),
                           cap.log.aggregate() if capture else None)
        assert out["batched"] == out["scalar"]


def traced_observation(rt):
    """What tracing leaves behind: the span events, the drop count, the
    per-miss stall histogram (exact count/sum/min/max, buckets) and the
    spans still open (none once a run returns)."""
    tracer = rt.obs.tracer
    hist = rt._stall_hist
    return {"events": tracer.events, "dropped": tracer.dropped,
            "stall_hist": (hist.count, hist.sum, hist.min, hist.max,
                           hist.buckets()),
            "open_spans": len(tracer._stack)}


def assert_traced_identical(make_runtime, make_trace):
    """Traced batched and traced scalar runs agree on the fingerprint
    and on every event, drop and stall observation."""
    got = {}
    for engine in ("scalar", "batched"):
        rt = make_runtime()
        addrs, writes = make_trace(rt)
        report = rt.run_trace(addrs, writes, engine=engine)
        got[engine] = (runtime_fingerprint(rt, report),
                       traced_observation(rt))
    scalar, batched = got["scalar"], got["batched"]
    assert scalar[1]["events"], "the traced run recorded no events"
    assert batched[0] == scalar[0]
    assert batched[1]["dropped"] == scalar[1]["dropped"]
    assert batched[1]["stall_hist"] == scalar[1]["stall_hist"]
    assert batched[1]["events"] == scalar[1]["events"]
    assert batched[1]["open_spans"] == scalar[1]["open_spans"] == 0
    return scalar[1]


def traced_runtime(cpu_cache_capacity=8 * u.MB, max_events=500_000,
                   sample_interval_ns=None, **overrides):
    def make():
        rec = FlightRecorder(tracing=True, max_events=max_events,
                             sample_interval_ns=sample_interval_ns)
        defaults = dict(fmem_capacity=8 * u.MB, vfmem_capacity=256 * u.MB,
                        slab_bytes=16 * u.MB)
        defaults.update(overrides)
        return KonaRuntime(KonaConfig(**defaults), app_ns_per_access=70.0,
                           cpu_cache_capacity=cpu_cache_capacity,
                           recorder=rec)
    return make


def event_names(observed):
    return {event["name"] for event in observed["events"]}


class TestTracedDifferential:
    """Span tracing on: batched must record exactly the scalar events."""

    def test_page_rank(self):
        seen = assert_traced_identical(traced_runtime(),
                                       workload_trace("page-rank", 8_000))
        assert {"fetch.fill", "fetch.fmem_hit",
                "rdma.read"} <= event_names(seen)

    def test_voltdb_tpcc_small_cpu_cache(self):
        # A 256 KB CPU cache evicts dirty lines (writeback instants)
        # and dirty FMem victims open evict.page spans inside fills.
        seen = assert_traced_identical(
            traced_runtime(cpu_cache_capacity=256 * u.KB),
            workload_trace("voltdb-tpcc", 8_000))
        assert {"coherence.writeback", "evict.page"} <= event_names(seen)

    def test_msi_upgrades(self):
        # MSI read fills grant S, so writes to resident lines upgrade
        # (upgrade instants between staged fills).
        def make_trace(rt):
            region = rt.mmap(MISS_REGION)
            addrs, writes = miss_heavy_trace(MISS_N, 19)
            return addrs + np.int64(region.start), writes
        seen = assert_traced_identical(
            traced_runtime(cpu_cache_capacity=256 * u.KB, protocol="msi",
                           fmem_capacity=2 * u.MB),
            make_trace)
        assert {"coherence.writeback", "coherence.upgrade",
                "evict.page"} <= event_names(seen)

    def test_hot_mix_with_sampler(self):
        seen = assert_traced_identical(
            traced_runtime(sample_interval_ns=10_000.0),
            mapped_hot_trace())
        assert any(event["ph"] == "C" for event in seen["events"])

    def test_prefetch_next_page(self):
        seen = assert_traced_identical(
            traced_runtime(prefetch_next_page=True, fmem_capacity=2 * u.MB),
            workload_trace("page-rank", 6_000))
        assert "fetch.prefetch" in event_names(seen)

    def test_unbacked_address_raises_identically(self):
        # A VFMem line with no remote backing fails its fill's locate:
        # both engines raise and keep the cost-less fetch.fill span.
        out = {}
        for engine in ("scalar", "batched"):
            rt = traced_runtime()()
            addrs, writes = workload_trace("page-rank", 3_000)(rt)
            addrs = addrs.astype(np.int64)
            addrs[2_000] = rt.vfmem.end - 4096
            with pytest.raises(TranslationError):
                rt.run_trace(addrs, writes, engine=engine)
            out[engine] = (traced_observation(rt), rt.counters.as_dict(),
                           rt.agent.counters.as_dict())
        assert out["batched"] == out["scalar"]
        assert "critical_ns" not in out["scalar"][0]["events"][-1]["args"]

    def test_node_failure_between_spans(self):
        # A crashed memory node: remote fills take the failure-aware
        # locate inside real spans (the replica failover's health
        # instant nests under its fill), then the node recovers.
        out = {}
        for engine in ("scalar", "batched"):
            cfg = KonaConfig(fmem_capacity=4 * u.MB, vfmem_capacity=64 * u.MB,
                             slab_bytes=16 * u.MB, replication_factor=2,
                             retry_seed=0)
            rt = KonaRuntime(cfg, num_memory_nodes=2, app_ns_per_access=70.0,
                             recorder=FlightRecorder(tracing=True))
            rt.failures.coherence_timeout_ns = 10_000.0
            region = rt.mmap(16 * u.MB)
            addrs, writes = miss_heavy_trace(9_000, 23,
                                             region_bytes=16 * u.MB)
            addrs = addrs + np.int64(region.start)
            spans = np.array_split(np.arange(addrs.size), 3)
            rt.run_trace(addrs[spans[0]], writes[spans[0]], engine=engine)
            rt.fabric.fail_node("mem0")
            rt.controller.node("mem0").fail()
            rt.run_trace(addrs[spans[1]], writes[spans[1]], engine=engine)
            rt.fabric.recover_node("mem0")
            rt.controller.node("mem0").recover()
            rt.recover()
            report = rt.run_trace(addrs[spans[2]], writes[spans[2]],
                                  engine=engine)
            out[engine] = (runtime_fingerprint(rt, report),
                           traced_observation(rt))
        assert out["batched"] == out["scalar"]
        assert out["scalar"][1]["open_spans"] == 0
        assert {"health.DEGRADED", "fetch.fill"} <= event_names(
            out["scalar"][1])

    def test_drops_mid_run(self):
        seen = assert_traced_identical(
            traced_runtime(max_events=3_000, fmem_capacity=2 * u.MB),
            workload_trace("page-rank", 6_000))
        assert seen["dropped"] > 0
        assert len(seen["events"]) == 3_000


class TestStreamedAndSharded:
    def test_streamed_chunks_identical_to_monolithic(self):
        addrs0, writes = miss_heavy_trace(12_000, 29)
        mono = {}
        for engine in ("scalar", "batched"):
            rt = build_miss_runtime()
            cap = rt.attach_causal_capture()
            region = rt.mmap(MISS_REGION)
            report = rt.run_trace(addrs0 + np.int64(region.start), writes,
                                  engine=engine)
            mono[engine] = (runtime_fingerprint(rt, report),
                            cap.log.aggregate())
        assert mono["batched"] == mono["scalar"]

        # Random cadence-aligned cuts, streamed through each engine.
        rng = np.random.default_rng(31)
        cuts = np.unique(rng.integers(1, addrs0.size // 256, 4)) * 256
        bounds = [0, *cuts.tolist(), addrs0.size]
        for engine in ("scalar", "batched"):
            rt = build_miss_runtime()
            cap = rt.attach_causal_capture()
            region = rt.mmap(MISS_REGION)
            base = np.int64(region.start)
            chunks = ((addrs0[a:b] + base, writes[a:b])
                      for a, b in zip(bounds, bounds[1:]))
            report = rt.run_trace_stream(chunks, engine=engine)
            streamed = (runtime_fingerprint(rt, report),
                        cap.log.aggregate())
            assert streamed == mono[engine], engine

    def test_sharded_batched_matches_sharded_scalar(self, tmp_path):
        from dataclasses import replace

        addrs, writes = miss_heavy_trace(12_000, 37)
        data = np.zeros(addrs.size, dtype=TRACE_DTYPE)
        data["addr"] = addrs.astype(np.uint64)
        data["size"] = u.CACHE_LINE
        data["write"] = writes
        trace_dir = str(tmp_path / "miss.trace")
        save_columnar(Trace(data=data, memory_bytes=MISS_REGION), trace_dir)
        out = {}
        for engine in ("scalar", "batched"):
            specs = [replace(spec, capture=True)
                     for spec in make_shards(trace_dir, 2, engine=engine,
                                             chunk_size=1 << 12,
                                             fmem_mb=4, vfmem_mb=64)]
            result = run_sharded(specs, processes=1)
            out[engine] = (result.totals.as_dict(), result.elapsed_ns,
                           result.fault_log().aggregate())
        assert out["batched"] == out["scalar"]


class TestConfigKnobs:
    def test_hysteresis_knobs_are_honored(self, monkeypatch):
        # Degenerate thresholds flip the adaptive engine's mode
        # choices, but bit-identity with the oracle must hold at any
        # setting — the knob steers speed, never results.
        for density in (0.01, 1.0):
            monkeypatch.setattr(engine_mod, "MISS_REPLAY_DENSITY", density)
            assert_miss_identical(lambda: miss_heavy_trace(4_000, 41))


class TestEngineDowngrade:
    @pytest.mark.parametrize("extra", ["agent", "eviction_sink"])
    def test_foreign_topology_runs_scalar(self, monkeypatch, extra):
        # A second caching agent breaks the fused lane's single-agent
        # proofs, and an extra eviction sink may record events the
        # lane would stage away, so engine="batched" runs the scalar
        # oracle: the vectorized front-end is never imported.
        imports = []
        from_scalar = VectorizedCoherentCache.from_scalar.__func__

        def counting(cls, cache):
            imports.append(cache)
            return from_scalar(cls, cache)

        monkeypatch.setattr(VectorizedCoherentCache, "from_scalar",
                            classmethod(counting))
        got = {}
        for engine in ("scalar", "batched"):
            rt = build_runtime()
            if extra == "agent":
                rt.agent.directory.register_agent(7, lambda line: False)
            else:
                rt.agent.on_page_eviction(lambda page, mask: None)
            addrs, writes = workload_trace("page-rank")(rt)
            report = rt.run_trace(addrs, writes, engine=engine)
            got[engine] = runtime_fingerprint(rt, report)
        assert got["batched"] == got["scalar"]
        assert imports == []


class TestPerfGateFloors:
    def test_quick_suite_has_miss_heavy_canonical_case(self):
        labels = {case.case_label: case for case in RUNTIME_QUICK_CASES}
        case = labels["page-rank-miss"]
        assert case.workload == "page-rank"
        assert case.num_accesses == 150_000
        assert case.seed == 7
        assert case.fmem_mb == 8

    def test_miss_heavy_cases_gate_above_parity(self):
        payload = {
            "canonical_speedup": 9.0,
            "cases": [
                {"workload": "hot-mix", "speedup": 9.0,
                 "counters_match": True},
                {"workload": "page-rank-miss", "speedup": 1.1,
                 "counters_match": True},
            ],
        }
        failures = check_speedup(payload, 1.0)
        assert len(failures) == 1
        assert "page-rank-miss" in failures[0] and "1.3x" in failures[0]
        # An explicit floor map overrides the default miss-heavy bars.
        assert check_speedup(payload, 1.0, case_floors={}) == []

    def test_generic_floor_still_applies(self):
        payload = {
            "canonical_speedup": 9.0,
            "cases": [{"workload": "hot-mix", "speedup": 0.9,
                       "counters_match": True}],
        }
        failures = check_speedup(payload, 1.0)
        assert len(failures) == 1 and "hot-mix" in failures[0]
