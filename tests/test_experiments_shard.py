"""Partition-sharded execution: disjoint coverage and determinism."""

import numpy as np
import pytest

from repro.common import units
from repro.common.errors import ConfigError
from repro.experiments.shard import (
    ShardSpec,
    make_shards,
    run_shard,
    run_sharded,
    shard_mask,
)
from repro.workloads.trace import generate_hot_mix_stream


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("shard") / "hot.trace")
    generate_hot_mix_stream(path, 60_000, hot_lines=4096,
                            region_bytes=16 * units.MB, seed=13,
                            chunk_size=1 << 13)
    return path


def _specs(trace_dir, num_shards, **kw):
    kw.setdefault("fmem_mb", 4)
    kw.setdefault("vfmem_mb", 32)
    kw.setdefault("chunk_size", 1 << 13)
    return make_shards(trace_dir, num_shards, **kw)


class TestPartition:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_masks_disjoint_and_covering(self, num_shards):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 30, 10_000).astype(np.uint64)
        owners = np.zeros(addrs.size, dtype=int)
        for shard in range(num_shards):
            owners += shard_mask(addrs, shard, num_shards)
        assert (owners == 1).all()

    def test_mask_is_page_granular(self):
        # Every line of a 4 KB page belongs to the same shard, so an
        # FMem fetch block never splits across runtimes.
        page = 37 * units.PAGE_4K
        lines = np.arange(page, page + units.PAGE_4K, units.CACHE_LINE,
                          dtype=np.uint64)
        for num_shards in (2, 3, 5):
            masks = [shard_mask(lines, s, num_shards)
                     for s in range(num_shards)]
            assert sum(bool(m.all()) for m in masks) == 1
            assert sum(bool(m.any()) for m in masks) == 1

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ShardSpec("t", shard=2, num_shards=2)
        with pytest.raises(ConfigError):
            ShardSpec("t", shard=0, num_shards=0)
        with pytest.raises(ConfigError):
            ShardSpec("t", shard=0, num_shards=1, chunk_size=0)


class TestShardedRun:
    def test_coverage_invariant(self, trace_dir):
        result = run_sharded(_specs(trace_dir, 3), processes=1)
        assert result.accesses == 60_000
        assert sum(o.accesses for o in result.outcomes) == 60_000
        assert result.totals["shard_accesses"] == 60_000

    def test_serial_equals_parallel(self, trace_dir):
        serial = run_sharded(_specs(trace_dir, 2), processes=1)
        parallel = run_sharded(_specs(trace_dir, 2), processes=2)
        assert serial.totals.as_dict() == parallel.totals.as_dict()
        assert [o.accesses for o in serial.outcomes] \
            == [o.accesses for o in parallel.outcomes]
        assert [o.elapsed_ns for o in serial.outcomes] \
            == [o.elapsed_ns for o in parallel.outcomes]

    def test_single_shard_runs(self, trace_dir):
        outcome = run_shard(_specs(trace_dir, 1)[0])
        assert outcome.accesses == 60_000
        assert outcome.elapsed_ns > 0

    def test_elapsed_is_slowest_shard(self, trace_dir):
        result = run_sharded(_specs(trace_dir, 2), processes=1)
        assert result.elapsed_ns \
            == max(o.elapsed_ns for o in result.outcomes)

    def test_rejects_mixed_or_duplicate_specs(self, trace_dir):
        specs = _specs(trace_dir, 2)
        with pytest.raises(ConfigError):
            run_sharded([])
        with pytest.raises(ConfigError):
            run_sharded([specs[0], specs[0]])

    def test_engines_agree(self, trace_dir):
        spec_b = _specs(trace_dir, 2)[0]
        spec_s = ShardSpec(trace_path=spec_b.trace_path, shard=0,
                           num_shards=2, engine="scalar",
                           chunk_size=spec_b.chunk_size,
                           fmem_mb=spec_b.fmem_mb,
                           vfmem_mb=spec_b.vfmem_mb)
        batched = run_shard(spec_b)
        scalar = run_shard(spec_s)
        assert batched.accesses == scalar.accesses
        assert batched.elapsed_ns == scalar.elapsed_ns
        assert batched.remote_fetches == scalar.remote_fetches
        assert batched.counters.as_dict() == scalar.counters.as_dict()

    def test_unaligned_chunks_batched_matches_scalar(self, trace_dir):
        # Page filtering leaves ragged per-shard chunks; at a chunk size
        # off the 256-access cadence the sharded batched run must still
        # equal the sharded scalar oracle and an aligned chunking.
        def run(engine, chunk_size):
            result = run_sharded(_specs(trace_dir, 2, engine=engine,
                                        chunk_size=chunk_size,
                                        capture=True),
                                 processes=1)
            return (result.totals.as_dict(),
                    [o.elapsed_ns for o in result.outcomes],
                    result.fault_log().aggregate())

        batched = run("batched", 1000)
        assert batched == run("scalar", 1000)
        assert batched == run("batched", 1 << 13)
