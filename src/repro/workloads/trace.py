"""Memory-access traces as numpy structured arrays.

A trace records (address, size, is_write, window) per access.  Windows
correspond to the paper's measurement windows (10 s for Table 2, 1 s
for KTracker experiments); generators assign them directly rather than
simulating wall-clock time.

Two on-disk formats:

* ``.npz`` (:func:`save_trace`/:func:`load_trace`): one compressed
  structured array — compact, but decompresses the whole trace into
  RAM on load, which caps it at ~10M accesses in practice.
* **columnar** (:func:`save_columnar`/:func:`open_columnar`): a
  directory of plain ``.npy`` column files plus a ``meta.json``.
  Plain ``.npy`` memory-maps, so a 100M–1B-access trace replays in
  fixed-size chunks (:func:`iter_trace_chunks`) with peak RSS bounded
  by the chunk size, and :class:`StreamingTraceWriter` generates one
  without ever holding it in memory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..common import units
from ..common.errors import ConfigError

#: Structured dtype of a trace row.
TRACE_DTYPE = np.dtype([
    ("addr", np.uint64),
    ("size", np.uint32),
    ("write", np.bool_),
    ("window", np.uint32),
])


@dataclass
class Trace:
    """An immutable-ish memory-access trace."""

    data: np.ndarray          # structured array with TRACE_DTYPE
    memory_bytes: int         # the workload's resident set size
    name: str = "trace"

    def __post_init__(self) -> None:
        if self.data.dtype != TRACE_DTYPE:
            raise ConfigError(f"trace dtype must be {TRACE_DTYPE}")

    def __len__(self) -> int:
        return int(self.data.size)

    @property
    def addrs(self) -> np.ndarray:
        """Access byte addresses (uint64)."""
        return self.data["addr"]

    @property
    def sizes(self) -> np.ndarray:
        """Access sizes in bytes."""
        return self.data["size"]

    @property
    def writes(self) -> np.ndarray:
        """Write mask."""
        return self.data["write"]

    @property
    def windows(self) -> np.ndarray:
        """Window ids."""
        return self.data["window"]

    @property
    def num_windows(self) -> int:
        """Number of distinct measurement windows."""
        if self.data.size == 0:
            return 0
        return int(self.data["window"].max()) + 1

    def window_slice(self, window: int) -> "Trace":
        """All accesses belonging to one window."""
        mask = self.data["window"] == window
        return Trace(self.data[mask], self.memory_bytes,
                     f"{self.name}[w{window}]")

    def iter_windows(self) -> Iterator[Tuple[int, "Trace"]]:
        """Yield (window_id, trace) pairs in order."""
        for w in range(self.num_windows):
            yield w, self.window_slice(w)

    def writes_only(self) -> "Trace":
        """Just the write accesses."""
        mask = self.data["write"]
        return Trace(self.data[mask], self.memory_bytes, f"{self.name}[w]")

    def reads_only(self) -> "Trace":
        """Just the read accesses."""
        mask = ~self.data["write"]
        return Trace(self.data[mask], self.memory_bytes, f"{self.name}[r]")

    def total_bytes(self) -> int:
        """Sum of access sizes."""
        return int(self.data["size"].sum())


def make_trace(addrs: np.ndarray, sizes: np.ndarray, writes: np.ndarray,
               windows: np.ndarray, memory_bytes: int,
               name: str = "trace") -> Trace:
    """Assemble a :class:`Trace` from parallel arrays."""
    n = len(addrs)
    for arr, label in ((sizes, "sizes"), (writes, "writes"),
                       (windows, "windows")):
        if len(arr) != n:
            raise ConfigError(f"{label} length {len(arr)} != addrs length {n}")
    data = np.empty(n, dtype=TRACE_DTYPE)
    data["addr"] = addrs
    data["size"] = sizes
    data["write"] = writes
    data["window"] = windows
    return Trace(data, memory_bytes, name)


def save_trace(trace: Trace, path) -> None:
    """Persist a trace to a compressed ``.npz`` file.

    Long traces are expensive to regenerate; persisted traces also make
    experiments bit-reproducible across machines.
    """
    np.savez_compressed(path, data=trace.data,
                        memory_bytes=np.int64(trace.memory_bytes),
                        name=np.bytes_(trace.name.encode()))


def load_trace(path) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    with np.load(path, allow_pickle=False) as archive:
        data = archive["data"]
        if data.dtype != TRACE_DTYPE:
            raise ConfigError(
                f"file holds dtype {data.dtype}, expected {TRACE_DTYPE}")
        return Trace(data.copy(), int(archive["memory_bytes"]),
                     bytes(archive["name"]).decode())


#: Columnar trace directory layout: ``meta.json`` plus one plain
#: ``.npy`` per column.  ``addr`` and ``write`` are mandatory (they are
#: what the replay engines consume); ``size`` and ``window`` are
#: optional and synthesized as WORD / 0 when absent, so streamed
#: generators can skip them.
COLUMNAR_FORMAT = "kona-columnar-trace"
COLUMNAR_VERSION = 1
_COLUMN_DTYPES = {"addr": np.uint64, "size": np.uint32,
                  "write": np.bool_, "window": np.uint32}
_REQUIRED_COLUMNS = ("addr", "write")


def _npy_header_bytes(dtype: np.dtype, count: int) -> bytes:
    """A fixed-width (128-byte) ``.npy`` v1.0 header for a 1-D array.

    numpy pads headers to a 64-byte multiple, so the header length
    depends on how many digits the shape has — useless for a streaming
    writer that must rewrite the count after the data.  Padding the
    dict text to one fixed width keeps the header length constant for
    any count, so ``close()`` can seek to 0 and overwrite in place.
    """
    header = ("{'descr': '%s', 'fortran_order': False, "
              "'shape': (%d,), }" % (dtype.str, count))
    total = 128
    body = header + " " * (total - 10 - 1 - len(header)) + "\n"
    return (b"\x93NUMPY\x01\x00" + len(body).to_bytes(2, "little")
            + body.encode("latin1"))


class StreamingTraceWriter:
    """Append-only columnar trace writer with O(chunk) memory.

    Opens one file per column, writes a placeholder header, streams
    raw array bytes through :meth:`append`, and fixes up the headers
    and ``meta.json`` on :meth:`close` — so a 100M+-access trace is
    generated without ever materializing it.
    """

    def __init__(self, path: str, memory_bytes: int,
                 name: str = "trace",
                 columns: Tuple[str, ...] = _REQUIRED_COLUMNS) -> None:
        for col in _REQUIRED_COLUMNS:
            if col not in columns:
                raise ConfigError(f"columnar trace requires column {col!r}")
        for col in columns:
            if col not in _COLUMN_DTYPES:
                raise ConfigError(f"unknown trace column {col!r}")
        self.path = path
        self.memory_bytes = int(memory_bytes)
        self.name = name
        self.columns = tuple(columns)
        self.length = 0
        os.makedirs(path, exist_ok=True)
        self._files = {}
        for col in self.columns:
            fh = open(os.path.join(path, f"{col}.npy"), "wb")
            fh.write(_npy_header_bytes(np.dtype(_COLUMN_DTYPES[col]), 0))
            self._files[col] = fh

    def append(self, **arrays: np.ndarray) -> None:
        """Append one chunk; keyword per column, equal lengths."""
        if set(arrays) != set(self.columns):
            raise ConfigError(
                f"append needs exactly columns {sorted(self.columns)}, "
                f"got {sorted(arrays)}")
        n = len(arrays["addr"])
        for col, arr in arrays.items():
            if len(arr) != n:
                raise ConfigError(f"column {col!r} length {len(arr)} != {n}")
            dtype = np.dtype(_COLUMN_DTYPES[col])
            self._files[col].write(
                np.ascontiguousarray(arr, dtype=dtype).tobytes())
        self.length += n

    def close(self) -> None:
        """Finalize headers and write ``meta.json``; idempotent."""
        if not self._files:
            return
        for col, fh in self._files.items():
            fh.seek(0)
            fh.write(_npy_header_bytes(
                np.dtype(_COLUMN_DTYPES[col]), self.length))
            fh.close()
        self._files = {}
        meta = {"format": COLUMNAR_FORMAT, "version": COLUMNAR_VERSION,
                "length": self.length, "memory_bytes": self.memory_bytes,
                "name": self.name, "columns": list(self.columns)}
        with open(os.path.join(self.path, "meta.json"), "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")

    def __enter__(self) -> "StreamingTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class ColumnarTrace:
    """A columnar trace opened for memory-mapped reading.

    ``addrs``/``writes`` (and ``sizes``/``windows`` when stored) are
    read-only memmaps — touching a slice faults in just those pages,
    so iteration over a 100M-access trace keeps RSS at chunk size.
    """

    path: str
    length: int
    memory_bytes: int
    name: str
    addrs: np.ndarray
    writes: np.ndarray
    sizes: Optional[np.ndarray] = None
    windows: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.length

    def iter_chunks(self, chunk_size: int
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(addrs, writes)`` memmap slices of ``chunk_size``."""
        if chunk_size <= 0:
            raise ConfigError(f"chunk_size {chunk_size} must be positive")
        for pos in range(0, self.length, chunk_size):
            hi = min(pos + chunk_size, self.length)
            yield self.addrs[pos:hi], self.writes[pos:hi]

    def materialize(self) -> Trace:
        """Copy into an in-memory :class:`Trace` (small traces only).

        Missing optional columns synthesize as WORD-sized single-window
        accesses — the values every replay engine assumes anyway.
        """
        data = np.empty(self.length, dtype=TRACE_DTYPE)
        data["addr"] = self.addrs
        data["write"] = self.writes
        data["size"] = (self.sizes if self.sizes is not None
                        else units.WORD)
        data["window"] = (self.windows if self.windows is not None else 0)
        return Trace(data, self.memory_bytes, self.name)


def read_columnar_meta(path: str) -> dict:
    """Load and validate a columnar trace's ``meta.json``."""
    meta_path = os.path.join(path, "meta.json")
    if not os.path.exists(meta_path):
        raise ConfigError(f"{path!r} is not a columnar trace "
                          f"(no meta.json)")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if meta.get("format") != COLUMNAR_FORMAT:
        raise ConfigError(f"{path!r}: format {meta.get('format')!r} != "
                          f"{COLUMNAR_FORMAT!r}")
    if meta.get("version") != COLUMNAR_VERSION:
        raise ConfigError(f"{path!r}: unsupported columnar version "
                          f"{meta.get('version')!r}")
    for col in _REQUIRED_COLUMNS:
        if col not in meta.get("columns", ()):
            raise ConfigError(f"{path!r}: missing required column {col!r}")
    return meta


def open_columnar(path: str) -> ColumnarTrace:
    """Open a columnar trace directory with memory-mapped columns."""
    meta = read_columnar_meta(path)
    arrays = {}
    for col in meta["columns"]:
        arr = np.load(os.path.join(path, f"{col}.npy"), mmap_mode="r")
        expect = np.dtype(_COLUMN_DTYPES[col])
        if arr.dtype != expect:
            raise ConfigError(f"{path!r}: column {col!r} dtype "
                              f"{arr.dtype} != {expect}")
        if arr.shape != (meta["length"],):
            raise ConfigError(f"{path!r}: column {col!r} length "
                              f"{arr.shape} != ({meta['length']},)")
        arrays[col] = arr
    return ColumnarTrace(path=path, length=int(meta["length"]),
                         memory_bytes=int(meta["memory_bytes"]),
                         name=str(meta["name"]),
                         addrs=arrays["addr"], writes=arrays["write"],
                         sizes=arrays.get("size"),
                         windows=arrays.get("window"))


def save_columnar(trace: Trace, path: str) -> None:
    """Write an in-memory :class:`Trace` as a columnar directory.

    All four columns are stored, so ``npz -> columnar -> npz`` is an
    exact round trip.
    """
    with StreamingTraceWriter(path, trace.memory_bytes, trace.name,
                              columns=("addr", "size", "write",
                                       "window")) as writer:
        writer.append(addr=trace.addrs, size=trace.sizes,
                      write=trace.writes, window=trace.windows)


def iter_trace_chunks(path: str, chunk_size: int = 1 << 20
                      ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Stream ``(addrs, writes)`` chunks from a columnar trace.

    The convenience entry point for
    :meth:`repro.kona.runtime.KonaRuntime.run_trace_stream`; a
    streamed replay is bit-identical to a monolithic one at any
    ``chunk_size``.
    """
    yield from open_columnar(path).iter_chunks(chunk_size)


def generate_hot_mix_stream(path: str, num_accesses: int,
                            hot_lines: int = 16384,
                            cold_fraction: float = 0.002,
                            region_bytes: int = 192 * units.MB,
                            write_fraction: float = 0.3,
                            seed: int = 7,
                            chunk_size: int = 1 << 20) -> ColumnarTrace:
    """Generate a hot-mix trace straight to columnar storage.

    Chunk ``i`` draws from ``default_rng([seed, i])``, so any chunk is
    reproducible independently (and a partial regeneration matches a
    full one) while peak RSS stays at one chunk regardless of
    ``num_accesses`` — this is how the 100M+-access scale points are
    produced.  Addresses are region-relative; rebase at replay time
    with ``run_trace_stream(..., base=region.start)``.
    """
    if num_accesses <= 0:
        raise ConfigError(f"num_accesses {num_accesses} must be positive")
    if chunk_size <= 0:
        raise ConfigError(f"chunk_size {chunk_size} must be positive")
    total_lines = region_bytes // units.CACHE_LINE
    if hot_lines > total_lines:
        raise ConfigError(f"hot_lines {hot_lines} exceeds region "
                          f"({total_lines} lines)")
    with StreamingTraceWriter(path, region_bytes,
                              name=f"hot-mix-{num_accesses}") as writer:
        for index, pos in enumerate(range(0, num_accesses, chunk_size)):
            n = min(chunk_size, num_accesses - pos)
            rng = np.random.default_rng([seed, index])
            lines = rng.integers(0, hot_lines, size=n, dtype=np.int64)
            cold = rng.random(n) < cold_fraction
            n_cold = int(cold.sum())
            if n_cold:
                lines[cold] = rng.integers(hot_lines, total_lines,
                                           size=n_cold, dtype=np.int64)
            writer.append(
                addr=(lines * units.CACHE_LINE).astype(np.uint64),
                write=rng.random(n) < write_fraction)
    return open_columnar(path)


def concatenate(traces: List[Trace], name: str = "concat") -> Trace:
    """Concatenate traces, renumbering windows consecutively."""
    if not traces:
        raise ConfigError("nothing to concatenate")
    parts = []
    offset = 0
    for trace in traces:
        part = trace.data.copy()
        part["window"] += offset
        offset += trace.num_windows
        parts.append(part)
    memory = max(t.memory_bytes for t in traces)
    return Trace(np.concatenate(parts), memory, name)
