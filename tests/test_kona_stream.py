"""Streamed replay: chunked ``run_trace_stream`` vs monolithic oracle.

The contract under test: feeding a trace through ``run_trace_stream``
in chunks of any sizes leaves the runtime in a state — every counter,
the dirty bitmap, the time accounting, the causal fault log, the
maintenance/sampler schedule and the bit-exact ``elapsed_ns`` —
identical to one monolithic scalar replay of the concatenated trace.
Because float addition is not associative, this only holds if the
engine runs ONE stall-accumulation chain through all chunks in program
order; these tests pin that ordering contract.
"""

import numpy as np
import pytest

from repro.coherence.vectorized import VectorizedCoherentCache
from repro.common import units
from repro.common.errors import ConfigError
from repro.experiments.bench import runtime_fingerprint
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.obs import FlightRecorder


def _trace(n=20_000, seed=0, lines=1 << 14, region=8 * units.MB):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, lines, n).astype(np.int64)
             * units.CACHE_LINE) % region
    return addrs, rng.random(n) < 0.3


def _runtime(region=8 * units.MB):
    cfg = KonaConfig(fmem_capacity=4 * units.MB,
                     vfmem_capacity=32 * units.MB,
                     slab_bytes=16 * units.MB)
    rt = KonaRuntime(cfg)
    return rt, rt.mmap(region)


def _chunks(addrs, writes, sizes):
    pos = 0
    for size in sizes:
        yield addrs[pos:pos + size], writes[pos:pos + size]
        pos += size
    assert pos == addrs.size


class TestStreamEqualsMonolithic:
    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    def test_fixed_chunks(self, engine):
        addrs, writes = _trace()
        rt_m, region_m = _runtime()
        report_m = rt_m.run_trace(addrs + region_m.start, writes,
                                  engine=engine)
        rt_s, region_s = _runtime()
        sizes = [4096] * 4 + [addrs.size - 4 * 4096]
        report_s = rt_s.run_trace_stream(
            _chunks(addrs, writes, sizes), engine=engine,
            base=region_s.start)
        assert runtime_fingerprint(rt_s, report_s) \
            == runtime_fingerprint(rt_m, report_m)

    def test_base_rebase_equals_prebased(self):
        # Per-chunk base rebasing (no shifted copy of the trace) must
        # behave exactly like adding the offset up front.
        addrs, writes = _trace(8192, seed=4)
        rt_a, region_a = _runtime()
        report_a = rt_a.run_trace(addrs + region_a.start, writes)
        rt_b, region_b = _runtime()
        report_b = rt_b.run_trace(addrs, writes, base=region_b.start)
        assert runtime_fingerprint(rt_a, report_a) \
            == runtime_fingerprint(rt_b, report_b)

    def test_ragged_final_chunk_allowed(self):
        addrs, writes = _trace(10_000, seed=1)
        rt_m, region_m = _runtime()
        report_m = rt_m.run_trace(addrs + region_m.start, writes)
        rt_s, region_s = _runtime()
        report_s = rt_s.run_trace_stream(
            _chunks(addrs, writes, [7936, 1792, 272]),
            base=region_s.start)
        assert runtime_fingerprint(rt_s, report_s) \
            == runtime_fingerprint(rt_m, report_m)

    def test_empty_chunks_skipped(self):
        addrs, writes = _trace(2048, seed=2)
        rt_m, region_m = _runtime()
        report_m = rt_m.run_trace(addrs + region_m.start, writes)
        rt_s, region_s = _runtime()
        sizes = [0, 1024, 0, 1024, 0]
        report_s = rt_s.run_trace_stream(
            _chunks(addrs, writes, sizes), base=region_s.start)
        assert runtime_fingerprint(rt_s, report_s) \
            == runtime_fingerprint(rt_m, report_m)


def _phased_trace(n=12_000, seed=0, region=8 * units.MB):
    """Alternating hot and cold phases: hot spans, miss-heavy stretches
    (sticky miss mode; traced fills staged or in real spans), FMem page
    drains and watermark reclaims."""
    rng = np.random.default_rng(seed)
    region_lines = region // units.CACHE_LINE
    cold_p = np.where((np.arange(n) // 2000) % 2 == 0, 0.01, 0.9)
    lines = rng.integers(0, 512, n).astype(np.int64)
    cold = rng.random(n) < cold_p
    lines[cold] = rng.integers(0, region_lines, int(cold.sum()))
    return lines * units.CACHE_LINE, rng.random(n) < 0.3


def _random_sizes(rng, n):
    """Chunk sizes 1..3000, with empty and size-1 chunks mixed in."""
    sizes = []
    left = n
    while left > 0:
        pick = rng.random()
        if pick < 0.1:
            size = 0
        elif pick < 0.2:
            size = 1
        else:
            size = int(rng.integers(1, 3001))
        size = min(size, left)
        sizes.append(size)
        left -= size
    return sizes


def _observed_run(mode, capture, addrs, writes, sizes, tracing=None):
    """Replay ``addrs`` cut into ``sizes`` and return everything
    observable: the fingerprint, the gauge row sampled at every
    maintenance tick, the causal fault aggregate and the span events.
    ``tracing`` overrides the mode's tracer switch (a traced scalar
    oracle)."""
    if tracing is None:
        tracing = mode == "traced"
    recorder = FlightRecorder(tracing=tracing, sample_interval_ns=1.0)
    cfg = KonaConfig(fmem_capacity=1 * units.MB,
                     vfmem_capacity=32 * units.MB,
                     slab_bytes=16 * units.MB)
    rt = KonaRuntime(cfg, cpu_cache_capacity=256 * units.KB,
                     recorder=recorder)
    region = rt.mmap(8 * units.MB)
    cap = rt.attach_causal_capture() if capture else None
    # The sim clock does not advance during a plain replay, so sample
    # unconditionally on every tick: each row pins one tick's position
    # in the stream and the gauges it saw.
    recorder.tick = recorder.sampler.sample
    engine = "scalar" if mode == "scalar" else "batched"
    report = rt.run_trace_stream(_chunks(addrs, writes, sizes),
                                 engine=engine, base=region.start)
    return (runtime_fingerprint(rt, report), recorder.sampler.samples,
            cap.log.aggregate() if cap is not None else None,
            recorder.tracer.events)


class TestStallSummationOrderingProperty:
    """Property test: ANY chunking is bit-exact with the oracle.

    ``elapsed_ns`` is a float sum of per-miss stalls; float addition
    does not commute with regrouping, so bit-equality across arbitrary
    chunkings proves the stream runs one summation chain in program
    order rather than summing per chunk and combining.  Chunks of 1 to
    3000 accesses (plus empty and single-access ones) cut the
    256-access maintenance cadence anywhere, so equal tick rows prove
    the cadence follows the global position, not the chunk's.
    """

    @pytest.mark.parametrize("capture", [False, True],
                             ids=["cap-off", "cap-on"])
    @pytest.mark.parametrize("mode", ["batched", "traced", "scalar"])
    @pytest.mark.parametrize("seed", range(3))
    def test_any_chunking(self, seed, mode, capture):
        addrs, writes = _phased_trace(seed=seed)
        oracle = _observed_run("scalar", capture, addrs, writes,
                               [addrs.size])
        assert oracle[1], "no maintenance tick was sampled"
        events = oracle[3]
        if mode == "traced":
            events = _observed_run("scalar", capture, addrs, writes,
                                   [addrs.size], tracing=True)[3]
            assert events, "the traced oracle recorded no events"
        rng = np.random.default_rng(seed + 100)
        for _ in range(2):
            sizes = _random_sizes(rng, addrs.size)
            got = _observed_run(mode, capture, addrs, writes, sizes)
            assert got[0] == oracle[0], f"chunking {sizes[:8]}... diverged"
            assert got[0]["elapsed_ns"] == oracle[0]["elapsed_ns"]
            assert got[1] == oracle[1]
            assert got[2] == oracle[2]
            assert got[3] == events

    def test_one_front_import_per_stream(self, monkeypatch):
        # One batched stream is one engine session: the vectorized
        # front-end is imported once, however many chunks arrive.
        imports = []
        from_scalar = VectorizedCoherentCache.from_scalar.__func__

        def counting(cls, cache):
            imports.append(cache)
            return from_scalar(cls, cache)

        monkeypatch.setattr(VectorizedCoherentCache, "from_scalar",
                            classmethod(counting))
        addrs, writes = _trace(20_000, seed=5)
        rt, region = _runtime()
        rt.run_trace_stream(_chunks(addrs, writes, [5000, 3333, 0, 11_667]),
                            base=region.start)
        assert len(imports) == 1

    def test_shape_mismatch_rejected(self):
        rt, region = _runtime()
        bad = iter([(np.zeros(4, np.int64), np.zeros(3, bool))])
        with pytest.raises(ConfigError):
            rt.run_trace_stream(bad, base=region.start)

    def test_unknown_engine_rejected(self):
        rt, _ = _runtime()
        with pytest.raises(ConfigError):
            rt.run_trace_stream(iter([]), engine="warp")
