"""Tests for the columnar (memory-mapped) trace format."""

import json
import os

import numpy as np
import pytest

from repro.common import units
from repro.common.errors import ConfigError
from repro.workloads.trace import (
    StreamingTraceWriter,
    generate_hot_mix_stream,
    iter_trace_chunks,
    load_trace,
    make_trace,
    open_columnar,
    read_columnar_meta,
    save_columnar,
    save_trace,
)


def _random_trace(n=5000, seed=3):
    rng = np.random.default_rng(seed)
    return make_trace(
        (rng.integers(0, 1 << 20, n).astype(np.uint64)
         * np.uint64(units.CACHE_LINE)),
        np.full(n, units.WORD, np.uint32),
        rng.random(n) < 0.3,
        rng.integers(0, 4, n).astype(np.uint32),
        memory_bytes=64 * units.MB, name="rand")


class TestRoundTrip:
    def test_columnar_preserves_all_columns(self, tmp_path):
        trace = _random_trace()
        path = str(tmp_path / "t.trace")
        save_columnar(trace, path)
        columnar = open_columnar(path)
        assert len(columnar) == len(trace)
        assert columnar.memory_bytes == trace.memory_bytes
        assert columnar.name == trace.name
        assert np.array_equal(columnar.addrs, trace.addrs)
        assert np.array_equal(columnar.writes, trace.writes)
        assert np.array_equal(columnar.sizes, trace.sizes)
        assert np.array_equal(columnar.windows, trace.windows)

    def test_npz_columnar_npz_is_exact(self, tmp_path):
        trace = _random_trace()
        npz_a = tmp_path / "a.npz"
        columnar = str(tmp_path / "b.trace")
        npz_b = tmp_path / "c.npz"
        save_trace(trace, npz_a)
        save_columnar(load_trace(npz_a), columnar)
        save_trace(open_columnar(columnar).materialize(), npz_b)
        again = load_trace(npz_b)
        assert np.array_equal(again.data, trace.data)
        assert again.memory_bytes == trace.memory_bytes

    def test_columns_are_memory_mapped(self, tmp_path):
        trace = _random_trace()
        path = str(tmp_path / "t.trace")
        save_columnar(trace, path)
        columnar = open_columnar(path)
        assert isinstance(columnar.addrs, np.memmap)
        assert isinstance(columnar.writes, np.memmap)


class TestStreamingWriter:
    def test_chunked_writes_equal_monolithic(self, tmp_path):
        trace = _random_trace()
        mono = str(tmp_path / "mono.trace")
        chunked = str(tmp_path / "chunked.trace")
        save_columnar(trace, mono)
        with StreamingTraceWriter(chunked, trace.memory_bytes, "rand",
                                  columns=("addr", "size", "write",
                                           "window")) as writer:
            for pos in range(0, len(trace), 777):
                hi = min(pos + 777, len(trace))
                writer.append(addr=trace.addrs[pos:hi],
                              size=trace.sizes[pos:hi],
                              write=trace.writes[pos:hi],
                              window=trace.windows[pos:hi])
        a, b = open_columnar(mono), open_columnar(chunked)
        assert np.array_equal(a.addrs, b.addrs)
        assert np.array_equal(a.writes, b.writes)
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.windows, b.windows)

    def test_minimal_columns_synthesize_on_materialize(self, tmp_path):
        path = str(tmp_path / "min.trace")
        with StreamingTraceWriter(path, 1 * units.MB) as writer:
            writer.append(addr=np.arange(10, dtype=np.uint64) * 64,
                          write=np.zeros(10, dtype=bool))
        columnar = open_columnar(path)
        assert columnar.sizes is None and columnar.windows is None
        trace = columnar.materialize()
        assert (trace.sizes == units.WORD).all()
        assert (trace.windows == 0).all()

    def test_npy_files_load_with_plain_numpy(self, tmp_path):
        # The fixed-width headers must still be valid .npy files.
        path = str(tmp_path / "npy.trace")
        addrs = np.arange(1000, dtype=np.uint64)
        with StreamingTraceWriter(path, units.MB) as writer:
            writer.append(addr=addrs, write=addrs % 3 == 0)
        loaded = np.load(os.path.join(path, "addr.npy"))
        assert np.array_equal(loaded, addrs)

    def test_writer_validates_columns(self, tmp_path):
        path = str(tmp_path / "bad.trace")
        with pytest.raises(ConfigError):
            StreamingTraceWriter(path, units.MB, columns=("addr",))
        with pytest.raises(ConfigError):
            StreamingTraceWriter(path, units.MB,
                                 columns=("addr", "write", "bogus"))
        writer = StreamingTraceWriter(path, units.MB)
        with pytest.raises(ConfigError):
            writer.append(addr=np.zeros(4, np.uint64))
        with pytest.raises(ConfigError):
            writer.append(addr=np.zeros(4, np.uint64),
                          write=np.zeros(3, bool))
        writer.close()


class TestMetaValidation:
    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            open_columnar(str(tmp_path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "x.trace"
        path.mkdir()
        (path / "meta.json").write_text(json.dumps(
            {"format": "other", "version": 1}))
        with pytest.raises(ConfigError):
            read_columnar_meta(str(path))

    def test_length_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_columnar(_random_trace(100), path)
        meta = read_columnar_meta(path)
        meta["length"] = 99
        with open(os.path.join(path, "meta.json"), "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(ConfigError):
            open_columnar(path)


class TestChunkIteration:
    def test_chunks_cover_trace_in_order(self, tmp_path):
        trace = _random_trace(4096 + 123)
        path = str(tmp_path / "t.trace")
        save_columnar(trace, path)
        chunks = list(iter_trace_chunks(path, 1024))
        assert [c[0].size for c in chunks] == [1024, 1024, 1024, 1024, 123]
        assert np.array_equal(np.concatenate([a for a, _ in chunks]),
                              trace.addrs)
        assert np.array_equal(np.concatenate([w for _, w in chunks]),
                              trace.writes)

    def test_bad_chunk_size_rejected(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_columnar(_random_trace(10), path)
        with pytest.raises(ConfigError):
            list(iter_trace_chunks(path, 0))


class TestHotMixStream:
    def test_deterministic_across_regeneration(self, tmp_path):
        kwargs = dict(num_accesses=50_000, hot_lines=2048,
                      region_bytes=8 * units.MB, seed=11,
                      chunk_size=1 << 13)
        a = generate_hot_mix_stream(str(tmp_path / "a"), **kwargs)
        b = generate_hot_mix_stream(str(tmp_path / "b"), **kwargs)
        assert np.array_equal(a.addrs, b.addrs)
        assert np.array_equal(a.writes, b.writes)

    def test_chunks_seeded_independently(self, tmp_path):
        # Chunk i draws from rng([seed, i]); a prefix generated with
        # the same chunk size is bit-identical, so partial regeneration
        # (or parallel generation) can never drift from a full one.
        full = generate_hot_mix_stream(
            str(tmp_path / "full"), 40_000, hot_lines=1024,
            region_bytes=4 * units.MB, seed=5, chunk_size=1 << 13)
        prefix = generate_hot_mix_stream(
            str(tmp_path / "prefix"), 24_576, hot_lines=1024,
            region_bytes=4 * units.MB, seed=5, chunk_size=1 << 13)
        n = len(prefix)
        assert np.array_equal(full.addrs[:n], prefix.addrs[:])
        assert np.array_equal(full.writes[:n], prefix.writes[:])

    def test_addresses_stay_in_region(self, tmp_path):
        columnar = generate_hot_mix_stream(
            str(tmp_path / "g"), 30_000, hot_lines=512,
            region_bytes=2 * units.MB, seed=9, chunk_size=1 << 12)
        assert int(columnar.addrs[:].max()) < 2 * units.MB
        assert columnar.memory_bytes == 2 * units.MB

    def test_rejects_bad_geometry(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_hot_mix_stream(str(tmp_path / "g"), 0)
        with pytest.raises(ConfigError):
            generate_hot_mix_stream(str(tmp_path / "g"), 10,
                                    hot_lines=1 << 30,
                                    region_bytes=units.MB)

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_rejects_non_positive_chunk_size(self, tmp_path, chunk_size):
        # Zero used to surface as range()'s untyped ValueError, and a
        # negative size silently wrote an empty trace.
        path = tmp_path / "g"
        with pytest.raises(ConfigError):
            generate_hot_mix_stream(str(path), 1000, hot_lines=64,
                                    region_bytes=units.MB,
                                    chunk_size=chunk_size)
        assert not path.exists()
