"""The batched trace engine: bulk hits, replayed events.

The scalar oracle (``KonaRuntime._run_trace_scalar``) executes one
Python call chain per access (``runtime.access`` ->
``CoherentCache.access`` -> directory -> ``MemoryAgent``).  On
paper-scale traces almost every access is a pure CPU-cache hit that
touches nothing below the cache, so this engine splits the stream:

* a vectorized front-end (:class:`VectorizedCoherentCache`, an ndarray
  mirror of the CPU coherent cache) classifies each span of accesses
  and resolves runs of *pure hits* — resident lines, writable when
  written — in single numpy operations;
* everything else (misses, S->M upgrades) is a *compressed event
  stream* replayed one at a time, in program order, by the fused miss
  lane (:class:`_FusedLane`), which folds the scalar
  directory/MemoryAgent/FMem chain into closed-form transitions over
  the same back-end state — so directory traffic, FMem fills,
  dirty-bitmap marks, eviction-handler work and the accumulated stall
  are bit-identical.

Pure hits never change another line's residency or writability, so a
classification stays valid up to the first non-pure access.  After
each replayed event the front-end's hit masks are *patched* instead of
recomputed: the evicted victim and any lines the directory invalidated
mid-fill (FMem page evictions snoop every line of the victim page)
become misses; the filled or upgraded line becomes a hit.

One :func:`run_trace_batched` call consumes a whole chunk stream and
holds the front-end, the fused miss lane and a global access position
for all of it.  That position drives the 256-access
``maybe_evict``/sampler-tick cadence and the causal-capture sequence
numbers, so a stream may be cut into chunks anywhere.

Span tracing rides the lane too: fills that never leave it are staged
as rows and turned into the scalar path's events in bulk
(:meth:`repro.obs.trace.Tracer.record_fills`), so a traced run records
exactly the scalar run's events.  The batched engine runs only where
the lane's single-agent proofs hold (:meth:`_FusedLane.eligible`);
``KonaRuntime`` runs every other runtime on the scalar engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..cache.replacement import LRUPolicy
from ..coherence.directory import DirectoryEntry
from ..coherence.states import LineState
from ..coherence.vectorized import (DOWNGRADED, EXCLUSIVE, INVALID,
                                    INVALIDATED, MODIFIED, OWNED, SHARED,
                                    _EMPTY, _WRITABLE,
                                    VectorizedCoherentCache)
from ..common import units
from ..common.errors import AddressError
from ..obs.trace import (ROW_FMEM_FILL, ROW_REMOTE_FILL, ROW_UPGRADE,
                         ROW_WRITEBACK)

if TYPE_CHECKING:
    from .runtime import KonaRuntime

#: Span size: the trace is consumed in bounded spans (no whole-trace
#: ``tolist``).  Also the granularity of engine-mode adaptation, so a
#: cold trace stops paying vectorization overhead quickly.
_CHUNK = 1 << 14

# Mode hysteresis: result-identical at any setting, this only steers
# speed.  A classified segment is replayed access by access through
# the fused lane when at least MISS_REPLAY_DENSITY of it misses, and a
# replayed segment that also realizes fewer hits than that gate turns
# on sticky miss mode (later segments skip classification until hits
# recover).
MISS_REPLAY_DENSITY = 0.5

#: The ``i & 0xFF == 0`` maintenance period of the scalar loop.
_CADENCE = 256

#: Block size for the run/patch boundary scan: big enough that a
#: nearly-pure span crosses it in a handful of argmin calls, small
#: enough that an event-dense span does not rescan a long tail.
_SCAN_BLOCK = 1024

_LINE_SHIFT = units.CACHE_LINE.bit_length() - 1

#: Stand-in for a disabled per-page residency index (see
#: ``_FusedLane.pageres``): its ``.get`` always misses, so the replay
#: loops' append sites need no extra flag test.  Never written.
_NO_PAGERES: dict = {}

_S_INVALID = LineState.INVALID
_S_SHARED = LineState.SHARED
_S_EXCLUSIVE = LineState.EXCLUSIVE
_S_OWNED = LineState.OWNED
_S_MODIFIED = LineState.MODIFIED


class _FusedLane:
    """Engine-private bulk miss-resolution pipeline.

    The replayed miss path used to walk the full scalar call chain —
    ``front.miss_fill`` -> ``Directory.put/get`` -> ``CoherenceEvent``
    -> ``MemoryAgent._on_event`` -> ``FMemCache.touch`` — per miss.
    Every step is observationally tiny (a dict transition, a counter,
    a latency constant) but each costs a Python frame, so miss-heavy
    traces ran at dict-cache speed and the batched engine regressed on
    them.

    This lane fuses the chain.  It is *only* legal on the topology the
    runtime itself builds — exactly one caching agent (the CPU cache)
    and exactly one directory observer (the memory agent), and no
    content shadow — which makes every directory transition provable
    in closed form:

    * a front-cache **miss** always finds the line's entry INVALID
      (cache evictions put the line back first), so GetS grants E
      (protocols with an E state) or S, and GetM grants M with a FILL;
    * a front-cache **victim** always collapses its entry to INVALID
      (no other agent can hold a copy);
    * a resident **write upgrade** moves an S/O entry to M with no
      invalidations.

    Anything that falls outside those proofs (a directory entry in an
    unexpected state, e.g. after a mid-fill snoop race) falls back to
    the generic ``front.miss_fill``/``front.upgrade`` path for that one
    access, so behaviour — including raised errors — stays identical
    to the scalar oracle.

    **Ordering contract.**  Program order is preserved per access: the
    victim's Put precedes the fill's Get, FMem allocation happens only
    after the remote location resolves (a failed fetch must not leave
    a dataless page resident), page-eviction drains run at the exact
    point ``FMemCache.touch`` would have reported the victim, and the
    stall accumulator receives each miss's cost in program order (float
    addition is non-associative; the scalar and batched engines share
    one summation chain, so ``elapsed_ns`` is bit-identical).  Account
    buckets with fractional increments (``remote_fetch``,
    ``fill_background``, ``memory_stall``) are likewise charged
    per miss; the ``fmem_hit`` bucket only ever accrues the
    integer-valued ``fmem_ns`` constant, so it is the one float the
    lane batches (`count * fmem_ns` is exact for integers below 2**53).

    **Batched bookkeeping.**  Integer counters are accumulated in the
    lane and flushed before every maintenance tick (gauges read them),
    before any page-eviction drain or prefetch (``clear_page`` consumes
    bitmap marks), and in the engine's ``finally`` (so a mid-trace
    ``NodeFailure`` leaves counter state identical to the scalar run).
    Dirty-victim bitmap marks are buffered and flushed through
    ``DirtyBitmap.mark_lines`` under the same rules.

    **Tracing.**  With the span tracer on, the lane records what
    ``MemoryAgent._on_event`` would.  A fill that stays inside the lane
    — an FMem hit, a remote fetch on a healthy rack, a victim drain of
    a clean page — and the ``coherence.writeback``/``coherence.upgrade``
    instants between fills are staged as rows, with the fill's cost
    feeding the ``kona_access_stall_ns`` histogram at the same flush;
    the rows go to ``Tracer.record_fills`` under the counter-delta
    flush rules above.  A fill that calls out (a dirty victim drain, a
    prefetch, a failure-aware locate, a generic fallback) runs inside
    a real ``fetch.fill`` span, so nested ``evict.*``/``fetch.prefetch``
    events keep their parent and timestamps.  The untraced replay loop
    pays one local flag test per miss (one more per dirty victim).
    """

    __slots__ = (
        "rt", "front", "agent", "directory", "entries", "marks", "cap",
        "fm_cache", "fm_lines", "fm_policies", "fm_stats", "fm_ways",
        "fm_set_mask", "page_size", "tag_page_shift", "bitmap",
        "account", "locate", "node_memo", "fabric_down", "extra_delays",
        "failures", "read_base",
        "remote_read_ns", "prefetch", "eager", "aid", "coh_ns",
        "fmem_ns", "fmem_ns_exact", "fill_bg_ns", "has_remainder",
        "has_excl", "snoop_ns", "last_page",
        "pageres", "miss_mode", "miss_gate",
        "tracing", "tracer", "clock", "observe_stall",
        "trace_rows", "fill_line", "fill_span",
        "d_cache_hits", "d_cache_misses", "d_front_hits",
        "d_front_misses", "d_front_evictions", "d_front_upgrades",
        "d_get_s", "d_get_m", "d_put_m", "d_put_clean", "d_fmem_hits",
        "d_remote", "d_writebacks", "d_upgrades_seen", "d_fm_hits",
        "d_fm_fills", "d_fm_evictions", "d_stat_hits", "d_stat_misses",
        "d_stat_evictions", "d_stat_dirty", "n_fmem_charges",
        "d_snoops", "d_lines_snooped", "d_ext_inval", "d_pages_evicted",
    )

    def __init__(self, rt: "KonaRuntime", front: VectorizedCoherentCache,
                 miss_gate: float) -> None:
        agent = rt.agent
        fc = agent.fmem._cache
        latency = agent.latency
        self.rt = rt
        self.front = front
        self.agent = agent
        # Causal capture sink (None when off).  The lane records at its
        # inlined fill sites; generic detours route through the real
        # MemoryAgent, which records for itself — mutually exclusive by
        # construction, so no fault is recorded twice.
        self.cap = rt._capture
        self.directory = agent.directory
        self.entries = self.directory._entries
        self.fm_cache = fc
        self.fm_lines = fc._lines
        self.fm_policies = fc._policies
        self.fm_stats = fc.stats
        self.fm_ways = fc.ways
        self.fm_set_mask = fc.num_sets - 1
        self.page_size = agent.fmem.page_size
        # page size is a power of two (FMemCache enforces it), so
        # line-tag -> page-tag is a shift.
        self.tag_page_shift = self.page_size.bit_length() - 1 - _LINE_SHIFT
        self.bitmap = agent.bitmap
        # The fill-path buckets (fmem_hit / remote_fetch /
        # fill_background) live on the *agent's* account, not the
        # runtime's — memory_stall is the caller's bucket.
        self.account = agent.account
        self.locate = agent._locate
        self.remote_read_ns = agent._remote_read_ns
        # Fetch-path memos, valid only while the rack is healthy (live
        # references: chaos mutates these sets/dicts in place at ticks,
        # between replay segments).  While ``fabric._down`` is empty and
        # replication is off, ``locate(line)`` is pure and only the
        # target *node* is consumed — and slab primaries cannot move
        # (``rebind`` is replication-only) — so page -> node caches the
        # whole resolve chain.  Likewise with no injected link delays
        # the line-read cost is one latency-model constant.
        self.node_memo: dict = {}
        self.fabric_down = rt.fabric._down
        self.extra_delays = rt.fabric._extra_delay_ns
        self.failures = rt.failures
        self.read_base = latency.rdma_transfer_ns(
            units.CACHE_LINE, linked=True, signaled=False)
        self.prefetch = (agent._maybe_prefetch
                         if agent._prefetcher is not None else None)
        self.eager = agent.config.eager_upgrade_tracking
        self.aid = front.agent_id
        self.coh_ns = latency.coherence_msg_ns
        self.snoop_ns = latency.snoop_ns
        self.fmem_ns = latency.fmem_ns
        self.fmem_ns_exact = float(latency.fmem_ns).is_integer()
        remainder = max(agent.config.fetch_block - units.CACHE_LINE, 0)
        self.has_remainder = remainder > 0
        self.fill_bg_ns = latency.rdma_per_byte_ns * remainder
        self.has_excl = front.protocol.has_exclusive
        # MRU memo: the FMem page the previous fill touched.  While a
        # page is the MRU of its set, ``LRUPolicy.touch`` is a no-op,
        # so consecutive fills from the same page can skip the probe
        # and the touch call entirely.  Reset whenever FMem changes
        # under the lane's feet (generic detours, prefetch inserts) or
        # the memoed page itself is drained.
        self.last_page = -1
        # Per-page front-residency index: page tag -> list of line
        # tags the lane filled while the page was FMem-resident, or
        # None for pages whose fill set is unknown (resident before
        # the lane existed, or touched by a generic detour).  A page
        # drain walks its (short) list through the live tag map
        # instead of stripe-scanning the whole tag array; unknown
        # pages keep the stripe scan.  Lists may carry stale or
        # duplicate tags (victim evictions don't consult this index) —
        # the tag-map probe filters both.  Disabled entirely under a
        # prefetcher, whose fills this bookkeeping cannot see, and
        # under MSI: its read fills grant S, an S copy survives its
        # page's drain, and when the page comes back the new list
        # would miss that line (a later upgrade makes it snoopable).
        # With an E state a single agent never holds S copies.
        if self.prefetch is None and self.has_excl:
            pageres: Optional[dict] = {}
            for fm_lines in self.fm_lines:
                for resident_page in fm_lines:
                    pageres[resident_page] = None
            self.pageres = pageres
        else:
            self.pageres = None
        # Sticky miss mode: set by replay when a segment ran at
        # effectively zero hits, letting the span driver skip
        # classification until the hit fraction recovers.
        self.miss_mode = False
        self.miss_gate = miss_gate
        # Span tracing (see _traced_fill).  Fills that never leave the
        # lane, and the writeback/upgrade instants between them, are
        # staged as ``(kind, line, node, read_ns, cost, now)`` rows and
        # handed to Tracer.record_fills under the counter-delta flush
        # rules; the stall histogram observes the staged fills at the
        # same flush.  Rows between flushes span at most one 256-access
        # cadence segment.
        tracer = rt.obs.tracer
        self.tracing = tracer.enabled
        self.tracer = tracer
        self.clock = tracer.clock
        self.observe_stall = rt._stall_hist.observe
        self.trace_rows: list = []
        # The traced fill in progress, and its span once opened.
        self.fill_line: Optional[int] = None
        self.fill_span = None
        if self.tracing and self.prefetch is not None:
            # Every traced fill then calls out (its prefetch runs inside
            # the fill span), so the inline replay has nothing to
            # stage: route all segments through the run/patch path.
            self.miss_gate = 0.0
        self.marks: list = []
        self.d_cache_hits = 0
        self.d_cache_misses = 0
        self.d_front_hits = 0
        self.d_front_misses = 0
        self.d_front_evictions = 0
        self.d_front_upgrades = 0
        self.d_get_s = 0
        self.d_get_m = 0
        self.d_put_m = 0
        self.d_put_clean = 0
        self.d_fmem_hits = 0
        self.d_remote = 0
        self.d_writebacks = 0
        self.d_upgrades_seen = 0
        self.d_fm_hits = 0
        self.d_fm_fills = 0
        self.d_fm_evictions = 0
        self.d_stat_hits = 0
        self.d_stat_misses = 0
        self.d_stat_evictions = 0
        self.d_stat_dirty = 0
        self.n_fmem_charges = 0
        self.d_snoops = 0
        self.d_lines_snooped = 0
        self.d_ext_inval = 0
        self.d_pages_evicted = 0

    @staticmethod
    def eligible(rt: "KonaRuntime") -> bool:
        """True when the fused single-agent proofs hold for ``rt``.

        Extra observers or caching agents mean directory transitions
        are no longer closed-form; a data plane must see every write,
        bulk-resolved hits included; an extra eviction sink could record
        events on a clean drain, which a traced fill stages as one row.
        ``KonaRuntime`` runs any other runtime on the scalar engine.
        """
        agent = rt.agent
        directory = agent.directory
        return (rt.content is None
                and directory._observers == [agent._on_event]
                and set(directory._agents) == {rt.cpu_cache.agent_id}
                and agent._eviction_sinks == [rt._eviction_sink])

    # -- access resolution ----------------------------------------------------

    def miss(self, tag: int, is_write: bool, age: int
             ) -> Tuple[Optional[int], int, int, float]:
        """One CPU-cache miss, fully fused.

        Returns ``(victim_tag_or_None, new_state_code, flat_slot,
        critical_cost_ns)`` — the first three match
        ``VectorizedCoherentCache.miss_fill`` so the run/patch caller
        can patch its hit masks.
        """
        front = self.front
        line = tag << _LINE_SHIFT
        entry = self.entries.get(line)
        if entry is None:
            entry = DirectoryEntry()
            self.entries[line] = entry
        elif entry.state is not _S_INVALID:
            # Outside the single-agent proof (e.g. a mid-fill snoop
            # race left residue): take the generic path for this miss.
            return self._miss_generic(line, is_write, age)
        sidx = tag & front._set_mask
        base = sidx * front.ways
        tags_f = front._tags_f
        state_f = front._state_f
        age_f = front._age_f
        self.d_front_misses += 1
        victim_tag: Optional[int] = None
        if front._counts[sidx] >= front.ways:
            flat = base + int(age_f[base:base + front.ways].argmin())
            victim_tag = int(tags_f[flat])
            victim_dirty = int(state_f[flat]) >= OWNED
            tags_f[flat] = _EMPTY
            state_f[flat] = INVALID
            age_f[flat] = 0
            del front._tag_map[victim_tag]
            self.d_front_evictions += 1
            victim_addr = victim_tag << _LINE_SHIFT
            ventry = self.entries.get(victim_addr)
            if victim_dirty:
                if (ventry is not None and ventry.owner == self.aid
                        and ventry.state is not _S_INVALID
                        and ventry.state is not _S_SHARED
                        and not (ventry.sharers - {self.aid})):
                    ventry.state = _S_INVALID
                    ventry.owner = None
                    ventry.sharers.clear()
                    self.d_put_m += 1
                    self.d_writebacks += 1
                    self.marks.append(victim_addr)
                    if self.tracing:
                        self._stage(ROW_WRITEBACK, victim_addr)
                else:
                    # Unexpected entry: the real PutM validates (and
                    # raises) exactly like the scalar path would.
                    self._flush_trace()
                    self.directory.put_modified(victim_addr, self.aid)
            else:
                if (ventry is not None
                        and ventry.owner in (None, self.aid)
                        and not (ventry.sharers - {self.aid})):
                    ventry.state = _S_INVALID
                    ventry.owner = None
                    ventry.sharers.clear()
                    self.d_put_clean += 1
                else:
                    self.directory.put_clean(victim_addr, self.aid)
        else:
            flat = base + int(
                (state_f[base:base + front.ways] == INVALID).argmax())
            front._counts[sidx] += 1
        # Directory Get: the entry is INVALID, so the grant is closed
        # form.  The transition lands before the fill is served, like
        # the scalar path (a snoop during the fill sees the new state).
        if is_write:
            self.d_get_m += 1
            entry.state = _S_MODIFIED
            entry.owner = self.aid
            entry.sharers = {self.aid}
            code = MODIFIED
        else:
            self.d_get_s += 1
            if self.has_excl:
                entry.state = _S_EXCLUSIVE
                entry.owner = self.aid
                entry.sharers = {self.aid}
                code = EXCLUSIVE
            else:
                entry.state = _S_SHARED
                entry.owner = None
                entry.sharers = {self.aid}
                code = SHARED
        cost = (self._traced_fill(line) if self.tracing
                else self._serve_fill(line))
        self.agent._last_access_ns = cost
        # Insert only after the fill completed, mirroring miss_fill:
        # a snoop landing mid-fill finds the line absent.
        tags_f[flat] = tag
        state_f[flat] = code
        age_f[flat] = age
        front._tag_map[tag] = flat
        return victim_tag, code, flat, cost

    def _miss_generic(self, line: int, is_write: bool, age: int
                      ) -> Tuple[Optional[int], int, int, float]:
        self.flush()
        self.last_page = -1   # the generic fill moves FMem under us
        if self.pageres is not None:
            # The generic fill lands a front line this bookkeeping
            # cannot see; stripe-scan the page on its next drain.
            self.pageres[line // self.page_size] = None
        victim_tag, code, flat = self.front.miss_fill(line, is_write, age)
        cost = self.agent._last_access_ns
        if self.tracing:
            self.observe_stall(cost)
        return victim_tag, code, flat, cost

    def upgrade(self, tag: int, age: int) -> None:
        """Write hit on a resident non-writable line (S/O -> M), fused."""
        line = tag << _LINE_SHIFT
        entry = self.entries.get(line)
        if (entry is None
                or (entry.state is not _S_SHARED
                    and entry.state is not _S_OWNED)
                or (entry.owner is not None and entry.owner != self.aid)
                or entry.sharers - {self.aid}):
            # e.g. the entry went INVALID in a mid-fill snoop race: the
            # generic upgrade routes through GetM, which may re-fill and
            # so drain a page — flush pending marks/deltas first.
            self.flush()
            self.last_page = -1   # a re-fill moves FMem under us
            self.front.upgrade(line, age)
            return
        self.d_get_m += 1
        entry.state = _S_MODIFIED
        entry.owner = self.aid
        entry.sharers = {self.aid}
        # UPGRADE event, fused: eager dirty tracking + latency constant.
        if self.eager:
            self.marks.append(line)
        self.d_upgrades_seen += 1
        if self.tracing:
            self._stage(ROW_UPGRADE, line)
        self.agent._last_access_ns = self.coh_ns
        front = self.front
        flat = front._tag_map[tag]
        front._state_f[flat] = MODIFIED
        front._age_f[flat] = age
        self.d_front_upgrades += 1

    def _serve_fill(self, line: int, record=None) -> float:
        """Fused ``MemoryAgent._serve_fill``: FMem hit or remote fetch.

        ``record(kind, line, node, read_ns, cost)``, when given, traces
        the fill (see :meth:`_traced_fill`) before any prefetch.
        """
        page_tag = line // self.page_size
        fm_sidx = page_tag & self.fm_set_mask
        fm_lines = self.fm_lines[fm_sidx]
        if page_tag in fm_lines:
            self.d_stat_hits += 1
            if self.pageres is not None:
                residents = self.pageres.get(page_tag)
                if residents is not None:
                    residents.append(line >> _LINE_SHIFT)
            if page_tag != self.last_page:
                self.fm_policies[fm_sidx].touch(page_tag)
                self.last_page = page_tag
            self.d_fm_hits += 1
            self.d_fmem_hits += 1
            cost = self.fmem_ns
            if self.fmem_ns_exact:
                self.n_fmem_charges += 1
            else:
                self.account.charge("fmem_hit", cost)
            if self.cap is not None:
                self.cap.record(self.cap.seq, line, None, 0,
                                0.0, 0.0, cost)
            if record is not None:
                record(ROW_FMEM_FILL, line, None, 0.0, cost)
            if self.prefetch is not None:
                if self.marks:
                    self._flush_marks()
                self.prefetch(line)
                self.last_page = -1   # prefetch fills may reorder the LRU
            return cost
        # FMem miss: resolve the remote location *before* allocating a
        # frame, so a failed fetch cannot leave a dataless page
        # resident (same ordering as the scalar agent).
        self.d_remote += 1
        node = self.locate(line).node
        self.d_stat_misses += 1
        self.d_fm_fills += 1
        policy = self.fm_policies[fm_sidx]
        victim_page: Optional[int] = None
        if len(fm_lines) >= self.fm_ways:
            victim_page = policy.evict()
            if fm_lines.pop(victim_page):
                self.d_stat_dirty += 1
            self.d_stat_evictions += 1
            self.d_fm_evictions += 1
        else:
            self.fm_cache._occupied += 1
        fm_lines[page_tag] = False
        policy.insert(page_tag)
        if self.pageres is not None:
            self.pageres[page_tag] = [line >> _LINE_SHIFT]
        if victim_page is not None:
            self.drain_page(victim_page)
        read_ns = self.remote_read_ns(node, units.CACHE_LINE)
        cost = self.coh_ns + read_ns
        if self.has_remainder:
            self.account.charge("fill_background", self.fill_bg_ns)
        self.account.charge("remote_fetch", cost)
        if self.cap is not None:
            self.cap.record(self.cap.seq, line, node, 1,
                            self.coh_ns, read_ns, 0.0)
        if record is not None:
            record(ROW_REMOTE_FILL, line, node, read_ns, cost)
        self.last_page = page_tag   # just inserted: the set's MRU
        if self.prefetch is not None:
            if self.marks:
                self._flush_marks()
            self.prefetch(line)
            self.last_page = -1   # prefetch fills may reorder the LRU
        return cost

    def _traced_fill(self, line: int) -> float:
        """:meth:`_serve_fill` with span tracing on.

        A fill that stays inside the lane is staged as one row.  A fill
        that calls out of it — a prefetch, or a failure-aware locate
        while a fabric node is down — runs inside a real ``fetch.fill``
        span, opened as ``MemoryAgent._on_event`` opens it after the
        staged rows go to the tracer, so the events it triggers keep
        their parent.  A victim drain calls out only when it records
        events (a dirty page): ``drain_page`` opens the span then, at
        the virtual time it would have opened at, since nothing in the
        fill before it moves the clock or records an event.
        """
        self.fill_line = line
        page_tag = line // self.page_size
        if self.prefetch is not None or (
                self.fabric_down and page_tag
                not in self.fm_lines[page_tag & self.fm_set_mask]):
            self._open_fill_span()
        try:
            cost = self._serve_fill(line, self._record_fill)
        except BaseException:
            # The scalar span closes around the raise, cost-less.
            if self.fill_span is None:
                self._open_fill_span()
            self.fill_span.__exit__(None, None, None)
            raise
        finally:
            self.fill_line = None
            span, self.fill_span = self.fill_span, None
        if span is None:
            return cost   # staged; observed when the rows are flushed
        self.tracer.charge_fill(span, cost)
        span.__exit__(None, None, None)
        self.observe_stall(cost)
        return cost

    def _open_fill_span(self) -> None:
        """Open the pending fill's real span (see :meth:`_traced_fill`)."""
        self._flush_trace()
        span = self.tracer.fill_span(self.fill_line)
        span.__enter__()
        self.fill_span = span

    def _record_fill(self, kind: int, line: int, node: Optional[str],
                     read_ns: float, cost: float) -> None:
        """Trace a fill: a staged row, or a child of its open span."""
        if self.fill_span is None:
            self._stage(kind, line, node, read_ns, cost)
        else:
            self.tracer.fill_child(kind, node, read_ns, cost)

    def _stage(self, kind: int, line: int, node: Optional[str] = None,
               read_ns: float = 0.0, cost: float = 0.0) -> None:
        """Stage one traced row (see :meth:`Tracer.record_fills`)."""
        self.trace_rows.append((kind, line, node, read_ns, cost,
                                self.clock.now))

    def _flush_trace(self) -> None:
        """Hand the staged rows to the tracer, in program order, and
        observe the staged fills' stalls."""
        rows = self.trace_rows
        if not rows:
            return
        self.tracer.record_fills(rows)
        observe = self.observe_stall
        for kind, _, _, _, cost, _ in rows:
            if kind == ROW_FMEM_FILL or kind == ROW_REMOTE_FILL:
                observe(cost)
        rows.clear()

    def replay(self, seg_tags: np.ndarray, seg_w: np.ndarray, age0: int,
               stall: float, seq0: int = 0) -> float:
        """Fused scalar replay of one miss-heavy segment.

        The loop inlines :meth:`miss` and :meth:`_serve_fill` with every
        binding hoisted to a local — on miss-dominated traces the lane's
        per-miss attribute loads and call frames were the largest
        remaining cost.  Event order, float summation order and raised
        errors are identical to the method path; integer deltas
        accumulate in locals and fold into the lane (in a ``finally``,
        so a mid-loop ``NodeFailure`` leaves totals scalar-exact).
        """
        front = self.front
        tag_map = front._tag_map
        tm_get = tag_map.get
        tags_f = front._tags_f
        state_f = front._state_f
        age_f = front._age_f
        counts = front._counts
        ways = front.ways
        set_mask = front._set_mask
        entries = self.entries
        aid = self.aid
        aid_set = {aid}
        has_excl = self.has_excl
        agent = self.agent
        acct = self.account._buckets
        stall_b = self.rt.account._buckets
        fm_all = self.fm_lines
        fm_policies = self.fm_policies
        fm_set_mask = self.fm_set_mask
        fm_ways = self.fm_ways
        fm_cache = self.fm_cache
        # Homogeneous policies (FMemCache builds one kind): inline the
        # LRU move-to-back on the hit path, skip the method call.
        fm_lru = isinstance(fm_policies[0], LRUPolicy)
        ent_get = entries.get
        tag_page_shift = self.tag_page_shift
        last_page = self.last_page
        marks = self.marks
        coh_ns = self.coh_ns
        fmem_ns = self.fmem_ns
        fmem_exact = self.fmem_ns_exact
        # Traced lanes replay only without a prefetcher (see miss_gate).
        tracing = self.tracing
        stage = self.trace_rows.append
        clock = self.clock
        prefetch = self.prefetch
        locate = self.locate
        remote_read_ns = self.remote_read_ns
        has_remainder = self.has_remainder
        fill_bg = self.fill_bg_ns
        line_bytes = units.CACHE_LINE
        # Health is re-examined per segment: chaos flips it at ticks,
        # which land exactly on segment boundaries.  A stale memo can
        # only survive a failure episode, so drop it when one starts.
        fast_locate = (not self.fabric_down
                       and self.failures.replication is None)
        if not fast_locate:
            self.node_memo.clear()
        node_memo = self.node_memo
        nm_get = node_memo.get
        fast_net = not self.extra_delays
        read_base = self.read_base
        cap = self.cap
        pageres = self.pageres
        # With no pageres index, an empty dict's .get makes the hit
        # branches' residency appends vanish without a per-miss flag.
        pr_get = pageres.get if pageres is not None else _NO_PAGERES.get
        # Global access ordinal of the access aged ``age``: faults are
        # keyed by sequence number so streamed/sharded captures line up.
        seq_off = seq0 - age0
        hits = 0
        misses = 0
        upgrades = 0
        l_front_misses = 0
        l_front_evictions = 0
        l_get_s = l_get_m = l_put_m = l_put_clean = 0
        l_fmem_hits = l_remote = 0
        l_fm_hits = l_fm_fills = l_fm_evictions = 0
        l_stat_hits = l_stat_misses = l_stat_evictions = l_stat_dirty = 0
        l_n_fmem = 0
        age = age0 - 1
        # The snoop journal is only consumed by the hot-span patcher;
        # this mode reclassifies every segment and drops the journal at
        # its end, so recording drain mutations here is pure waste.
        rec_muts = front.record_mutations
        front.record_mutations = False
        try:
            for tag, isw in zip(seg_tags.tolist(), seg_w.tolist()):
                age += 1
                flat = tm_get(tag, -1)
                if flat >= 0:
                    if not isw or _WRITABLE_PY[state_f[flat]]:
                        if isw:
                            state_f[flat] = MODIFIED
                        age_f[flat] = age
                        hits += 1
                        continue
                    if cap is not None:
                        cap.seq = seq_off + age
                    self.upgrade(tag, age)
                    upgrades += 1
                    continue
                line = tag << _LINE_SHIFT
                entry = ent_get(line)
                if entry is None:
                    entry = DirectoryEntry()
                    entries[line] = entry
                elif entry.state is not _S_INVALID:
                    if cap is not None:
                        cap.seq = seq_off + age
                    cost = self._miss_generic(line, isw, age)[3]
                    stall += cost
                    stall_b["memory_stall"] += cost
                    misses += 1
                    continue
                sidx = tag & set_mask
                base = sidx * ways
                l_front_misses += 1
                if counts[sidx] >= ways:
                    flat = base + int(age_f[base:base + ways].argmin())
                    victim_tag = int(tags_f[flat])
                    victim_dirty = int(state_f[flat]) >= OWNED
                    tags_f[flat] = _EMPTY
                    state_f[flat] = INVALID
                    age_f[flat] = 0
                    del tag_map[victim_tag]
                    l_front_evictions += 1
                    victim_addr = victim_tag << _LINE_SHIFT
                    ventry = entries.get(victim_addr)
                    if victim_dirty:
                        if (ventry is not None and ventry.owner == aid
                                and ventry.state is not _S_INVALID
                                and ventry.state is not _S_SHARED
                                and ventry.sharers <= aid_set):
                            ventry.state = _S_INVALID
                            ventry.owner = None
                            ventry.sharers.clear()
                            l_put_m += 1
                            self.d_writebacks += 1
                            marks.append(victim_addr)
                            if tracing:
                                stage((ROW_WRITEBACK, victim_addr, None,
                                       0.0, 0.0, clock.now))
                        else:
                            self._flush_trace()
                            self.directory.put_modified(victim_addr, aid)
                    else:
                        if (ventry is not None
                                and ventry.owner in (None, aid)
                                and ventry.sharers <= aid_set):
                            ventry.state = _S_INVALID
                            ventry.owner = None
                            ventry.sharers.clear()
                            l_put_clean += 1
                        else:
                            self.directory.put_clean(victim_addr, aid)
                else:
                    # Free-way pick: states are uint8 and INVALID == 0,
                    # so memchr (bytes.find) locates the first empty way
                    # without materializing a Python list.
                    flat = base + state_f[base:base + ways].tobytes().find(0)
                    counts[sidx] += 1
                if isw:
                    l_get_m += 1
                    entry.state = _S_MODIFIED
                    entry.owner = aid
                    entry.sharers = {aid}
                    code = MODIFIED
                else:
                    l_get_s += 1
                    if has_excl:
                        entry.state = _S_EXCLUSIVE
                        entry.owner = aid
                        entry.sharers = {aid}
                        code = EXCLUSIVE
                    else:
                        entry.state = _S_SHARED
                        entry.owner = None
                        entry.sharers = {aid}
                        code = SHARED
                # Serve the fill (inlined _serve_fill).
                page_tag = tag >> tag_page_shift
                if page_tag == last_page:
                    # Page is its set's MRU (we made it so on the last
                    # fill and nothing evicted it since): the resident
                    # probe and the LRU touch are both no-op-equivalent.
                    residents = pr_get(page_tag)
                    if residents is not None:
                        residents.append(tag)
                    l_stat_hits += 1
                    l_fm_hits += 1
                    l_fmem_hits += 1
                    cost = fmem_ns
                    if fmem_exact:
                        l_n_fmem += 1
                    else:
                        acct["fmem_hit"] += cost
                    if cap is not None:
                        cap.record(seq_off + age, line, None, 0,
                                   0.0, 0.0, cost)
                    if tracing:
                        stage((ROW_FMEM_FILL, line, None, 0.0, cost,
                               clock.now))
                elif page_tag in fm_all[fm_sidx := page_tag & fm_set_mask]:
                    residents = pr_get(page_tag)
                    if residents is not None:
                        residents.append(tag)
                    l_stat_hits += 1
                    if fm_lru:
                        order = fm_policies[fm_sidx]._order
                        if order[-1] != page_tag:
                            order.remove(page_tag)
                            order.append(page_tag)
                    else:
                        fm_policies[fm_sidx].touch(page_tag)
                    l_fm_hits += 1
                    l_fmem_hits += 1
                    cost = fmem_ns
                    if fmem_exact:
                        l_n_fmem += 1
                    else:
                        acct["fmem_hit"] += cost
                    if cap is not None:
                        cap.record(seq_off + age, line, None, 0,
                                   0.0, 0.0, cost)
                    if tracing:
                        stage((ROW_FMEM_FILL, line, None, 0.0, cost,
                               clock.now))
                    last_page = page_tag
                elif tracing:
                    # A traced remote fetch: staged, or run inside a real
                    # span when it calls out (see _traced_fill).
                    if cap is not None:
                        cap.seq = seq_off + age
                    self.last_page = last_page
                    cost = self._traced_fill(line)
                    last_page = self.last_page
                else:
                    l_remote += 1
                    if fast_locate:
                        node = nm_get(page_tag)
                        if node is None:
                            node = locate(line).node
                            node_memo[page_tag] = node
                    else:
                        node = locate(line).node
                    l_stat_misses += 1
                    l_fm_fills += 1
                    fm_sidx = page_tag & fm_set_mask
                    fm_lines = fm_all[fm_sidx]
                    policy = fm_policies[fm_sidx]
                    victim_page = None
                    if len(fm_lines) >= fm_ways:
                        victim_page = policy.evict()
                        if fm_lines.pop(victim_page):
                            l_stat_dirty += 1
                        l_stat_evictions += 1
                        l_fm_evictions += 1
                    else:
                        fm_cache._occupied += 1
                    fm_lines[page_tag] = False
                    policy.insert(page_tag)
                    if pageres is not None:
                        pageres[page_tag] = [tag]
                    if victim_page is not None:
                        self.drain_page(victim_page)
                    read_ns = (read_base if fast_net
                               else remote_read_ns(node, line_bytes))
                    cost = coh_ns + read_ns
                    if has_remainder:
                        acct["fill_background"] += fill_bg
                    acct["remote_fetch"] += cost
                    if cap is not None:
                        cap.record(seq_off + age, line, node, 1,
                                   coh_ns, read_ns, 0.0)
                    last_page = page_tag   # just inserted: the set's MRU
                if prefetch is not None:
                    if marks:
                        self._flush_marks()
                    prefetch(line)
                    last_page = -1   # prefetch fills may reorder the LRU
                agent._last_access_ns = cost
                tags_f[flat] = tag
                state_f[flat] = code
                age_f[flat] = age
                tag_map[tag] = flat
                stall += cost
                stall_b["memory_stall"] += cost
                misses += 1
        finally:
            front.record_mutations = rec_muts
            self.last_page = last_page
            self.d_cache_hits += hits + upgrades
            self.d_cache_misses += misses
            self.d_front_hits += hits
            self.d_front_misses += l_front_misses
            self.d_front_evictions += l_front_evictions
            self.d_get_s += l_get_s
            self.d_get_m += l_get_m
            self.d_put_m += l_put_m
            self.d_put_clean += l_put_clean
            self.d_fmem_hits += l_fmem_hits
            self.d_remote += l_remote
            self.d_fm_hits += l_fm_hits
            self.d_fm_fills += l_fm_fills
            self.d_fm_evictions += l_fm_evictions
            self.d_stat_hits += l_stat_hits
            self.d_stat_misses += l_stat_misses
            self.d_stat_evictions += l_stat_evictions
            self.d_stat_dirty += l_stat_dirty
            self.n_fmem_charges += l_n_fmem
        # Nothing to patch in this mode; drop any snoop journal entries
        # so they don't leak into the next (reclassified) segment.
        front._mutations.clear()
        # Sticky miss mode: skip classification while segments run at
        # effectively zero hits (any dispatch choice is result-identical;
        # this one only saves the classify).
        self.miss_mode = hits < len(seg_tags) * self.miss_gate
        return stall

    def drain_page(self, victim_page: int) -> None:
        """Fused ``MemoryAgent._evict_page`` for an FMem victim page.

        The scalar drain (``Directory.snoop_page``) probes all 64 line
        entries one dict lookup at a time; here one gather against the
        front-end's tag array finds the resident lines of the page in
        a single vector compare.  Correctness leans on the single-agent
        invariant the lane already proves: a line is resident in the
        front cache *iff* its directory entry is non-trivial — the one
        exception, the line currently mid-fill, lives on the page being
        filled, which is never the victim page.  SHARED copies are
        clean and survive the snoop (same as the scalar path); E/M/O
        copies are invalidated, dirty ones marking the bitmap before
        ``clear_page`` consumes the page's mask.
        """
        front = self.front
        page_addr = victim_page * self.page_size
        n_lines = self.page_size >> _LINE_SHIFT
        tag0 = page_addr >> _LINE_SHIFT
        self.d_snoops += n_lines
        tag_map = front._tag_map
        tags_f = front._tags_f
        state_f = front._state_f
        age_f = front._age_f
        counts = front._counts
        ways = front.ways
        muts = front._mutations if front.record_mutations else None
        entries = self.entries
        if victim_page == self.last_page:
            self.last_page = -1   # the memoed page is leaving FMem
        residents = (self.pageres.pop(victim_page, None)
                     if self.pageres is not None else None)
        sidx0 = tag0 & front._set_mask
        if residents is not None:
            # Fast path: the lane recorded every fill it made while
            # the page was resident, so probing those few tags against
            # the live tag map replaces the whole-array stripe scan.
            # Stale tags (victim-evicted since) probe to -1; duplicate
            # tags are idempotent (the first visit removes the line,
            # or a SHARED copy is skipped every time).  Drain effects
            # are order-insensitive (set/total semantics), so fill
            # order vs. tag order is unobservable.
            tm_get = tag_map.get
            pairs = []
            for t in residents:
                f = tm_get(t, -1)
                if f >= 0:
                    pairs.append((f, t))
        elif sidx0 + n_lines <= front.num_sets:
            # Consecutive line tags land in consecutive sets, so the
            # page's possible slots are one contiguous stripe of the
            # tag array: a single vector compare finds every resident
            # line (ascending slot order == ascending tag order, the
            # same order the scalar snoop walks).
            row0 = sidx0 * ways
            stripe = tags_f[row0:row0 + n_lines * ways]
            cand = ((stripe >> self.tag_page_shift)
                    == victim_page).nonzero()[0]
            # Line j of the page lives in stripe row j (consecutive
            # tags, consecutive sets), so the resident tag falls out of
            # the stripe offset — no read-back from the tag array.
            pairs = [(row0 + off, tag0 + off // ways)
                     for off in cand.tolist()]
        else:
            # The stripe wraps the set array (rare): probe the map.
            get = tag_map.get
            pairs = [(f, t) for f, t in
                     ((get(t, -1), t)
                      for t in range(tag0, tag0 + n_lines)) if f >= 0]
        snooped = False
        n_inval = 0
        marks = self.marks
        for flat, t in pairs:
            state = state_f[flat]
            if state == SHARED:   # clean copies survive the snoop
                continue
            del tag_map[t]
            tags_f[flat] = _EMPTY
            state_f[flat] = INVALID
            age_f[flat] = 0
            counts[flat // ways] -= 1
            if muts is not None:
                muts.append((INVALIDATED, t))
            line = t << _LINE_SHIFT
            entry = entries[line]
            entry.state = _S_INVALID
            entry.owner = None
            entry.sharers.clear()
            if state >= OWNED:
                marks.append(line)
                self.d_lines_snooped += 1
                snooped = True
            n_inval += 1
        if n_inval:
            self.d_ext_inval += n_inval
        if snooped:
            # The scalar SNOOPED event leaves the snoop latency as the
            # agent's last critical-path cost; mirror it so a drain
            # outside the miss path (watermark reclaim) stays exact.
            self.agent._last_access_ns = self.snoop_ns
        # Pending bitmap marks — earlier dirty victims plus this
        # drain's snooped lines — must land before clear_page consumes
        # the page's mask.
        if self.marks or self.d_writebacks:
            self._flush_marks()
        mask = self.bitmap.clear_page(victim_page)
        self.d_pages_evicted += 1
        if self.fill_line is not None and self.fill_span is None and mask:
            self._open_fill_span()   # the sink records eviction events
        for sink in self.agent._eviction_sinks:
            sink(page_addr, mask)

    def drain_page_addr(self, page_addr: int) -> None:
        """Address-keyed :meth:`drain_page` — the ``_evict_page``
        signature, so watermark reclaim can route through the lane."""
        self.drain_page(page_addr // self.page_size)

    # -- delta flushing -------------------------------------------------------

    def _flush_marks(self) -> None:
        self.bitmap.mark_lines(self.marks)
        self.marks.clear()
        if self.d_writebacks:
            self.agent.counters.add("writebacks_tracked",
                                    self.d_writebacks)
            self.d_writebacks = 0

    def flush(self) -> None:
        """Flush every batched delta; idempotent, totals-exact.

        Called before maintenance ticks, around generic-path detours,
        and from the engine's ``finally`` so exceptional exits leave
        the same counter state as the scalar oracle.  Staged trace rows
        go to the tracer here too.
        """
        self._flush_trace()
        if self.marks or self.d_writebacks:
            self._flush_marks()
        rtc = self.rt.counters
        if self.d_cache_hits:
            rtc.add("cache_hits", self.d_cache_hits)
            self.d_cache_hits = 0
        if self.d_cache_misses:
            rtc.add("cache_misses", self.d_cache_misses)
            self.d_cache_misses = 0
        fc = self.front.counters
        if self.d_front_hits:
            fc.add("hits", self.d_front_hits)
            self.d_front_hits = 0
        if self.d_front_misses:
            fc.add("misses", self.d_front_misses)
            self.d_front_misses = 0
        if self.d_front_evictions:
            fc.add("evictions", self.d_front_evictions)
            self.d_front_evictions = 0
        if self.d_front_upgrades:
            fc.add("upgrades", self.d_front_upgrades)
            self.d_front_upgrades = 0
        dc = self.directory.counters
        if self.d_get_s:
            dc.add("get_s", self.d_get_s)
            self.d_get_s = 0
        if self.d_get_m:
            dc.add("get_m", self.d_get_m)
            self.d_get_m = 0
        if self.d_put_m:
            dc.add("put_m", self.d_put_m)
            self.d_put_m = 0
        if self.d_put_clean:
            dc.add("put_clean", self.d_put_clean)
            self.d_put_clean = 0
        ac = self.agent.counters
        if self.d_fmem_hits:
            ac.add("fmem_hits", self.d_fmem_hits)
            self.d_fmem_hits = 0
        if self.d_remote:
            ac.add("remote_fetches", self.d_remote)
            self.d_remote = 0
        if self.d_upgrades_seen:
            ac.add("upgrades_seen", self.d_upgrades_seen)
            self.d_upgrades_seen = 0
        if self.d_lines_snooped:
            ac.add("lines_snooped", self.d_lines_snooped)
            self.d_lines_snooped = 0
        if self.d_pages_evicted:
            ac.add("pages_evicted", self.d_pages_evicted)
            self.d_pages_evicted = 0
        if self.d_snoops:
            dc.add("snoops", self.d_snoops)
            self.d_snoops = 0
        if self.d_ext_inval:
            fc.add("external_invalidations", self.d_ext_inval)
            self.d_ext_inval = 0
        fmc = self.agent.fmem.counters
        if self.d_fm_hits:
            fmc.add("hits", self.d_fm_hits)
            self.d_fm_hits = 0
        if self.d_fm_fills:
            fmc.add("fills", self.d_fm_fills)
            self.d_fm_fills = 0
        if self.d_fm_evictions:
            fmc.add("evictions", self.d_fm_evictions)
            self.d_fm_evictions = 0
        st = self.fm_stats
        if self.d_stat_hits:
            st.hits += self.d_stat_hits
            self.d_stat_hits = 0
        if self.d_stat_misses:
            st.misses += self.d_stat_misses
            self.d_stat_misses = 0
        if self.d_stat_evictions:
            st.evictions += self.d_stat_evictions
            self.d_stat_evictions = 0
        if self.d_stat_dirty:
            st.dirty_writebacks += self.d_stat_dirty
            self.d_stat_dirty = 0
        if self.n_fmem_charges:
            # Exact: the bucket and fmem_ns are integer-valued, so the
            # batched product equals n sequential additions bit for bit.
            self.account.charge("fmem_hit",
                                self.n_fmem_charges * self.fmem_ns)
            self.n_fmem_charges = 0


def run_trace_batched(rt: "KonaRuntime", chunks, base: int = 0
                      ) -> Tuple[float, int]:
    """Execute a stream of ``(addrs, writes)`` chunks; returns
    ``(accumulated stall ns, accesses executed)``.

    State-, counter-, latency- and trace-identical to the scalar loop
    over the concatenated stream, for any chunking, including
    mid-trace exceptions: an out-of-range address raises
    :class:`AddressError` after the preceding accesses have fully
    executed, and back-end failures (e.g. ``NodeFailure``) propagate
    with the cache state at the failing access exported back.  ``rt``
    must satisfy :meth:`_FusedLane.eligible` (``KonaRuntime`` runs any
    other runtime on the scalar engine).

    The call is the engine session: the front-end is imported on the
    first span and exported in the ``finally``, and one float stall
    chain runs through every chunk in program order (see the ordering
    contract on :class:`_FusedLane`).  The chunk iterator must not
    touch ``rt`` while the session holds its CPU-cache state.  ``base``
    rebases every address by a constant offset, applied per span —
    streamed columnar traces store region-relative addresses and never
    materialize a rebased copy of the whole trace.
    """
    # Read per call, so the differential tests can force degenerate
    # dispatch choices by patching the module constant.
    miss_gate = 1.0 - MISS_REPLAY_DENSITY
    directory = rt.agent.directory
    front: Optional[VectorizedCoherentCache] = None
    lane: Optional[_FusedLane] = None
    vf_start, vf_end = rt.vfmem.start, rt.vfmem.end
    tick = rt.obs.tick if rt.obs.sampler is not None else None
    maybe_evict = rt.maybe_evict
    # Causal capture numbers faults by global access ordinal: ``base``
    # counts accesses completed before this stream.
    cap = rt._capture
    seq_base = cap.base if cap is not None else 0
    stall = 0.0
    g = 0   # global position: drives cadence and capture seq
    try:
        for addrs, writes in chunks:
            n = int(addrs.size)
            for pos in range(0, n, _CHUNK):
                hi = min(pos + _CHUNK, n)
                if front is None:
                    front = VectorizedCoherentCache.from_scalar(rt.cpu_cache)
                    front.attach(directory)
                    front.record_mutations = True
                    lane = _FusedLane(rt, front, miss_gate)
                a = np.asarray(addrs[pos:hi]).astype(np.int64, copy=False)
                if base:
                    a = a + base
                w = np.ascontiguousarray(writes[pos:hi], dtype=bool)
                ok = (a >= vf_start) & (a < vf_end)
                limit = a.size if ok.all() else int(ok.argmin())
                tags = a >> _LINE_SHIFT
                stall = _run_span(rt, front, lane, tags[:limit], w[:limit],
                                  g, stall, maybe_evict, tick, seq_base + g)
                if limit < a.size:
                    # Same behaviour as the scalar loop: every access
                    # before the bad one has executed; the bad one
                    # raises.
                    raise AddressError(
                        f"{int(a[limit]):#x} is not Kona-managed memory")
                g += a.size
        if cap is not None:
            cap.base = seq_base + g
    finally:
        if front is not None:
            lane.flush()
            # The session ends: free the lane's memos and the front-end
            # as the dict cache is rebuilt, so it reuses their memory.
            lane = None
            front.record_mutations = False
            front.export_to(rt.cpu_cache)
            rt.cpu_cache.attach(directory)
    return stall, g


def _run_span(rt: "KonaRuntime", front: VectorizedCoherentCache,
              lane: _FusedLane, tags: np.ndarray, w: np.ndarray,
              g_base: int, stall: float, maybe_evict, tick,
              seq0: int) -> float:
    """Run one span, segmented at the maintenance cadence.

    The scalar loop runs ``maybe_evict``/``obs.tick`` *after* global
    access ``i`` whenever ``i % 256 == 0``, so each segment extends
    through the next cadence index and maintenance fires at its end;
    ``g_base`` is the span's global position.  Returns the stall.
    """
    m = int(tags.size)
    local = 0
    hot = False
    if m > _CADENCE and not lane.miss_mode:
        # Hot-span fast path: classify the whole chunk once and keep
        # the masks alive across cadence boundaries — boundary events
        # and maintenance mutations are patched into the remaining
        # span instead of reclassifying every 256-access segment.
        # Only worth it when boundary events are rare (the patches
        # scan the remaining span), hence the 31/32 purity gate.
        pure, resident, flat = front.classify(tags, w)
        hot = 32 * int(pure.sum()) >= 31 * m
        if hot:
            ages = np.arange(front._clock + 1, front._clock + 1 + m,
                             dtype=np.int64)
    while local < m:
        g = g_base + local
        cadence = g if g % _CADENCE == 0 else (g // _CADENCE + 1) * _CADENCE
        end = min(cadence - g_base + 1, m)
        if hot:
            stall = _run_patch(rt, front, lane, tags, w, pure, resident,
                               flat, ages, local, end, stall, seq0)
        else:
            stall = _run_segment(rt, front, lane, tags[local:end],
                                 w[local:end], front._clock + 1, stall,
                                 seq0 + local)
        front._clock += end - local
        if (g_base + end - 1) % _CADENCE == 0:
            # Maintenance reads gauges (counters, bitmap, FMem stats)
            # and the tracer; every batched delta and staged trace row
            # must be visible first.  Watermark reclaim drains pages
            # through the lane's vectorized snoop instead of the
            # per-line scalar one.
            lane.flush()
            if maybe_evict(evict_page=lane.drain_page_addr):
                lane.flush()   # reclaim deltas, before the sampler tick
            if hot and end < m and front._mutations:
                # Proactive eviction may have snooped lines out of the
                # CPU cache; fold the journal into the live span masks.
                _patch_mutations(front, tags[end:], w[end:], pure[end:],
                                 resident[end:])
            else:
                # Cold mode reclassifies the next segment; drop the log.
                front._mutations.clear()
            if tick is not None:
                tick()
        local = end
    return stall


def _run_segment(rt: "KonaRuntime", front: VectorizedCoherentCache,
                 lane: _FusedLane, seg_tags: np.ndarray, seg_w: np.ndarray,
                 age0: int, stall: float, seq0: int) -> float:
    """Bulk-resolve pure-hit runs; replay each boundary event.

    Returns the stall.
    """
    length = int(seg_tags.size)
    if lane.miss_mode:
        # Sticky miss mode: the previous replayed segment ran at
        # effectively zero hits, so skip classification entirely;
        # replay re-opens the gate as soon as a segment's realized hit
        # fraction crosses it.  Result-identical to the classified
        # dispatch (both paths are bit-exact).
        return lane.replay(seg_tags, seg_w, age0, stall, seq0)
    pure, resident, flat = front.classify(seg_tags, seg_w)
    if int(pure.sum()) < length * lane.miss_gate:
        # Miss-heavy segment: the run/patch machinery would pay its
        # numpy overhead on nearly every access for no bulk win, so
        # replay the segment access-by-access against the front-end's
        # tag map — same events, same order, same counters.
        return lane.replay(seg_tags, seg_w, age0, stall, seq0)
    ages = np.arange(age0, age0 + length, dtype=np.int64)
    return _run_patch(rt, front, lane, seg_tags, seg_w, pure, resident,
                      flat, ages, 0, length, stall, seq0)


def _run_patch(rt: "KonaRuntime", front: VectorizedCoherentCache,
               lane: _FusedLane, tags: np.ndarray, w: np.ndarray,
               pure: np.ndarray, resident: np.ndarray, flat: np.ndarray,
               ages: np.ndarray, start: int, end: int, stall: float,
               seq0: int) -> float:
    """Run/patch ``[start, end)`` of a classified window.

    Bulk-resolves pure-hit runs; each boundary event is dispatched off
    a *live* cache probe rather than the (stale) classification masks.
    Only pure->False facts are patched into the masks — victims and
    snoop mutations, to the end of the arrays, not of ``end``, so a
    hot span reuses one classification across its cadence segments.
    An access whose line *became* resident again after classification
    stays marked non-pure and is simply caught by the probe, which
    keeps per-event cost independent of the span length (the old
    True-direction patches were two full-tail array ops per event).
    """
    counters = rt.counters
    account = rt.account
    tm_get = front._tag_map.get
    state_f = front._state_f
    age_f = front._age_f
    cap = rt._capture
    inline_hits = 0
    p = start
    while p < end:
        # First non-pure access at or after p.  Blocked argmin keeps
        # the scan proportional to the distance to the boundary, not
        # to the span tail (bool argmin does not short-circuit).
        q = p
        while q < end:
            stop = q + _SCAN_BLOCK
            blk = pure[q:stop if stop < end else end]
            r = int(blk.argmin())
            if not blk[r]:
                q += r
                break
            q += blk.shape[0]
        if q > p:
            front.bulk_hits(flat[p:q], w[p:q], ages[p:q])
            counters.add("cache_hits", q - p)
            p = q
            if p >= end:
                break
        tag = int(tags[p])
        age = int(ages[p])
        isw = bool(w[p])
        fslot = tm_get(tag, -1)
        if fslot >= 0 and (not isw or _WRITABLE_PY[state_f[fslot]]):
            # A pure hit after all (an earlier event re-filled or
            # upgraded the line): apply it like a bulk_hits singleton.
            if isw:
                state_f[fslot] = MODIFIED
            age_f[fslot] = age
            inline_hits += 1
        elif fslot >= 0:
            # Resident but not writable on a write: upgrade (S/O -> M).
            if cap is not None:
                cap.seq = seq0 + p   # a rare generic re-fill records
            lane.upgrade(tag, age)
            lane.d_cache_hits += 1
            if front._mutations:
                _patch_mutations(front, tags[p + 1:], w[p + 1:],
                                 pure[p + 1:], resident[p + 1:])
        else:
            if cap is not None:
                cap.seq = seq0 + p
            victim_tag, _, _, cost = lane.miss(tag, isw, age)
            stall += cost
            account.charge("memory_stall", cost)
            lane.d_cache_misses += 1
            # The victim left: any later access still marked as a pure
            # hit on it must fall back to the event path.
            if victim_tag is not None:
                sel = tags[p + 1:] == victim_tag
                if sel.any():
                    pure[p + 1:][sel] = False
                    resident[p + 1:][sel] = False
            if front._mutations:
                _patch_mutations(front, tags[p + 1:], w[p + 1:],
                                 pure[p + 1:], resident[p + 1:])
        p += 1
    if inline_hits:
        front.counters.add("hits", inline_hits)
        counters.add("cache_hits", inline_hits)
    return stall


#: ``_WRITABLE`` as a Python tuple (state codes I/S/E/O/M) — scalar
#: indexing in the replay loop without numpy scalar boxing.
_WRITABLE_PY = tuple(bool(x) for x in _WRITABLE)


def _patch_mutations(front: VectorizedCoherentCache, rem_tags: np.ndarray,
                     rem_w: np.ndarray, pure_rem: np.ndarray,
                     res_rem: np.ndarray) -> None:
    """Fold directory-initiated mutations into the remaining masks."""
    for kind, mtag in front.take_mutations():
        sel = rem_tags == mtag
        if not sel.any():
            continue
        if kind == INVALIDATED:
            pure_rem[sel] = False
            res_rem[sel] = False
        else:
            assert kind == DOWNGRADED
            # Still resident, no longer writable.
            pure_rem[sel] = ~rem_w[sel]
