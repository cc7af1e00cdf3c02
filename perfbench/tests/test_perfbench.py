"""Tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench import harness
from perfbench.harness import END_TO_END, PER_LAYER, count_failures, \
    measure, run_rep
from perfbench.spans import CHUNK_SPAN, NO_PARENT, READ_SPAN, \
    SpanRecorder, instrument, layer_entry_points, self_times
from perfbench.workloads import WORKLOADS, Workload, character_problems

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Small stand-ins for the real workloads (no character checks apply).
TINY = Workload("tiny", "page-rank", 3000, 1)     # 1 MB FMem: evicts
TINY_STREAM = Workload("tiny-stream", "hot-mix", 600_000, 64, streamed=True,
                       warmed=True)

#: A seed kept out of tuning the benchmark.
HELD_OUT_SEED = 90210


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        _span("root", 0, 100, NO_PARENT),
        _span("a", 10, 30, 0),
        _span("a.child", 12, 20, 1),
        _span("b", 40, 90, 0),
        _span("b.1", 40, 60, 3),
        _span("b.2", 55, 70, 3),      # overlaps b.1: the union counts once
        _span("late", 95, 120, 0),    # runs past its parent: clipped
    ]
    assert self_times(spans) == [100 - 20 - 50 - 5, 20 - 8, 8,
                                 50 - 30, 20, 15, 25]


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([_span("x", 5, 9, NO_PARENT)]) == [4]


# -- metric names ---------------------------------------------------------------


def test_metric_names_match_the_contract_and_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == END_TO_END
    assert layers == PER_LAYER
    names = list(e2e) + list(layers) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- failure counting -------------------------------------------------------------


def test_count_failures_counts_raised_and_mismatched_runs():
    oracle = {"elapsed_ns": 1.0, "runtime": {"cache_hits": 3}}
    good = {"elapsed_ns": 1.0, "runtime": {"cache_hits": 3}}
    bad = {"elapsed_ns": 1.0, "runtime": {"cache_hits": 4}}
    assert count_failures([good, good], oracle) == 0
    assert count_failures([good, bad, None, good], oracle) == 2


def test_injected_fingerprint_mismatch_fails_the_run(monkeypatch, tmp_path):
    real = harness.run_rep
    calls = []

    def corrupt_second(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls.append(rep)
        if len(calls) == 2:
            rep.fingerprint = dict(rep.fingerprint,
                                   elapsed_ns=rep.fingerprint["elapsed_ns"]
                                   + 1e-6)
        return rep

    monkeypatch.setattr(harness, "run_rep", corrupt_second)
    out = measure(TINY, 1, 0.0, True, str(tmp_path))
    assert out.attempted == 2 * harness.MIN_REPS
    assert out.failed == 1
    assert not out.correct
    assert out.metrics["bench.failed_frac"] == pytest.approx(
        1 / out.attempted)


def test_clean_run_is_correct(tmp_path):
    out = measure(TINY, 1, 0.0, False, str(tmp_path))
    assert out.correct and out.failed == 0
    assert set(out.metrics) == set(END_TO_END)
    assert all(v > 0 for v in out.metrics.values())


# -- wrapping ------------------------------------------------------------------------


def _raw_attributes():
    return {(owner, attr): owner.__dict__[attr]
            for owner, attr, _ in layer_entry_points()}


def test_instrument_restores_every_wrapped_attribute():
    before = _raw_attributes()
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with instrument(recorder):
            during = _raw_attributes()
            raise RuntimeError("boom")
    assert all(during[key] is not raw for key, raw in before.items())
    after = _raw_attributes()
    assert all(after[key] is raw for key, raw in before.items())
    assert recorder.missing == []


def test_wrapped_replay_matches_unwrapped_and_nests_spans(tmp_path):
    plain = run_rep(TINY, 3, str(tmp_path))
    recorder = SpanRecorder()
    traced = run_rep(TINY, 3, str(tmp_path), recorder)
    assert traced.fingerprint == plain.fingerprint
    spans = recorder.spans
    roots = [s for s in spans if s[3] == NO_PARENT]
    assert [s[0] for s in roots] == ["runtime.run_trace"]
    assert all(s[2] >= s[1] for s in spans)
    drains = [s for s in spans if s[0] == "engine.drain_page"]
    assert drains
    for s in spans:
        if s[3] != NO_PARENT:
            parent = spans[s[3]]
            assert parent[1] <= s[1] and s[2] <= parent[2]
    assert sum(self_times(spans)) == roots[0][2] - roots[0][1]


def test_streamed_replay_records_chunk_and_read_spans(tmp_path):
    recorder = SpanRecorder()
    rep = run_rep(TINY_STREAM, 1, str(tmp_path), recorder)
    names = [s[0] for s in recorder.spans]
    chunks = -(-TINY_STREAM.accesses // (1 << 18))
    assert names.count(CHUNK_SPAN) == chunks
    assert names.count(READ_SPAN) == chunks + 1    # the last pull stops
    for s in recorder.spans:
        if s[0] == "front.from_scalar":
            assert recorder.spans[s[3]][0] == CHUNK_SPAN
    assert rep.accesses == TINY_STREAM.accesses


# -- workload character on a held-out seed --------------------------------------------


def test_workloads_keep_their_character_on_a_held_out_seed(tmp_path):
    workdir = str(tmp_path)
    reference = run_rep(WORKLOADS["pagerank-miss"], HELD_OUT_SEED,
                        workdir).delta
    for w in WORKLOADS.values():
        rep = run_rep(w, HELD_OUT_SEED, workdir)
        assert character_problems(w, rep.delta, rep.accesses,
                                  rep.span_events, rep.dropped,
                                  reference) == [], w.name
