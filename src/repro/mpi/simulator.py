"""Deterministic discrete-event MPI simulator.

The substrate for Figs. 2-3.  Every MPI rank is a Python generator that
*yields* communication operations; the engine advances a virtual clock,
routes messages over the :class:`~repro.mpi.network.TofuDNetwork`, and
charges binding software costs from a
:class:`~repro.mpi.bindings.BindingProfile`.  Collective algorithms
(:mod:`repro.mpi.collectives`) are ordinary sub-generators built from
sends/receives, so their latency *emerges* from real message flows —
1536-rank Allreduce really performs ~11 rounds of pairwise exchanges
across the torus.

Semantics (blocking MPI, one outstanding operation per rank):

* ``Send`` — the sender is busy for its endpoint software time; eager
  messages let it continue immediately afterwards, rendezvous blocks it
  until the data has arrived at the receiver (the synchronous large-
  message behaviour of Fujitsu MPI).
* ``Recv`` — completes at ``max(post time, arrival) + endpoint time``.
* ``SendRecv`` — simultaneous exchange (used by the collectives to
  avoid deadlock, like MPI_Sendrecv).
* ``Compute`` — local work (reduction arithmetic, model time).
* ``Now`` — reads the rank's virtual clock (the benchmark timer).

Payloads are real Python/numpy objects, so data correctness is testable;
benchmarks may send ``payload=None`` with an explicit byte count to skip
data handling at 1536-rank scale.

How the engine runs (one engine, every layer exactly value-preserving):

1. **Timing tables.**  ``wire_time`` (topology hops + protocol choice)
   and ``endpoint_time`` (binding software costs, including the
   memory-hierarchy bounce-buffer copy) are pure functions of
   ``(src, dest, nbytes)`` for a given engine, so both are memoised,
   and fault-free worlds on equal networks share the wire table.

2. **Tuple events.**  The heap holds ``(time, seq, kind, a, b)`` tuples:
   kind 0 resumes rank ``a`` with value ``b``, kind 1 delivers message
   ``b`` to rank ``a``, kind 2 calls ``a`` (timeouts, non-blocking
   completions).  ``seq`` is unique and handed out when an event is
   scheduled, so ``(time, seq)`` is a total order and every side effect
   (trace events, guard probes, stats) happens at a fixed point of it.
   This scalar path is the engine's semantics; faulted, traced and
   guarded runs use nothing else.

3. **Wave commits.**  In *fast mode* — no faults, no tracing, no guard,
   no recv timeout — the engine may pop the whole heap as one *wave*
   when it holds only rank resumes and deliveries.  Pending deliveries
   are drained first (when none can be overtaken, see :meth:`_wave`),
   the generators are resumed in heap order, and — if the wave is a
   homogeneous lockstep round (all ``SendRecv`` with ``payload None``
   pairing bijectively inside the wave, or all ``Compute`` / ``Now`` /
   ``Mark``) — every rank's clock advance is committed with vectorised
   numpy column arithmetic: injection, per-destination ingress
   serialisation, arrival, and recv completion as float64 array ops
   (bit-identical to the scalar float chain).  A round only commits
   when the earliest computed completion does not precede the latest
   member resume; otherwise the already-yielded ops are dispatched one
   by one in exact ``(time, seq)`` order, so heterogeneous phases (tree
   reductions, linear gathers, fold-ins) keep the scalar schedule.
   Waves are chosen automatically; nothing selects them.

The resume-before-dispatch move inside a wave is sound because resuming
a rank generator has no engine-visible side effects: the value passed
in was fixed when its completion was committed, and program code only
computes and yields the next op.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..guard.contracts import Contract
from ..guard.monitor import get_guard
from ..obs.trace import get_recorder
from .bindings import BindingProfile, IMB_C
from .faults import FaultPlan
from .network import TofuDNetwork

__all__ = [
    "Send",
    "Recv",
    "SendRecv",
    "Isend",
    "Irecv",
    "Wait",
    "Waitall",
    "Compute",
    "Now",
    "Mark",
    "DeadlockError",
    "RankFailedError",
    "Engine",
    "EngineStats",
    "RankProgram",
]

#: Per-rank virtual clocks may stall but never run backwards; a
#: violation means an event handler rewound ``state.time`` — a
#: scheduling bug that would silently corrupt every derived timing.
_CLOCK_CONTRACT = Contract(
    name="rank_clock_monotonic",
    kind="non_decreasing",
    description="per-rank virtual clock must never decrease",
)


# ---------------------------------------------------------------------------
# Operations a rank may yield
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Send:
    dest: int
    nbytes: int
    payload: Any = None
    tag: int = 0


@dataclass(frozen=True)
class Recv:
    source: int
    tag: int = 0


@dataclass(frozen=True)
class SendRecv:
    dest: int
    send_nbytes: int
    source: int
    send_payload: Any = None
    send_tag: int = 0
    recv_tag: int = 0


@dataclass(frozen=True)
class Isend:
    """Non-blocking send: yields a request id immediately; the sender is
    busy only for the local injection (eager copy / rendezvous setup)."""

    dest: int
    nbytes: int
    payload: Any = None
    tag: int = 0


@dataclass(frozen=True)
class Irecv:
    """Non-blocking receive: posts the match and yields a request id."""

    source: int
    tag: int = 0


@dataclass(frozen=True)
class Wait:
    """Block until a request completes; yields the received payload
    (``None`` for send requests)."""

    request: int


@dataclass(frozen=True)
class Waitall:
    """Block until every request completes; yields the list of payloads
    in request order."""

    requests: Tuple[int, ...]


@dataclass(frozen=True)
class Compute:
    seconds: float


@dataclass(frozen=True)
class Now:
    pass


@dataclass(frozen=True)
class Mark:
    """Zero-cost trace annotation: records a virtual-clock phase mark
    (collective phase boundaries, algorithm switches) when tracing is
    on and is a plain no-op otherwise — it never advances the clock, so
    yielding it cannot change any simulated timing."""

    name: str
    info: Any = None


RankProgram = Callable[..., Generator]


class DeadlockError(RuntimeError):
    """No runnable event but ranks are still blocked."""


class RankFailedError(RuntimeError):
    """A communication partner failed (or a timeout expired waiting on
    it); raised instead of letting the simulation hang in deadlock.

    Carries the observing rank, the peer it was waiting on (if known),
    and the virtual time of detection for post-mortem diagnostics.
    """

    def __init__(
        self,
        message: str,
        rank: Optional[int] = None,
        peer: Optional[int] = None,
        time: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.peer = peer
        self.time = time


@dataclass
class EngineStats:
    """Aggregate traffic statistics of one simulation run.

    Filled by the engine as messages move; useful both for tests (did
    the collective really send p log p messages?) and for communication
    analysis of rank programs.
    """

    messages: int = 0
    bytes_sent: int = 0
    eager_messages: int = 0
    rendezvous_messages: int = 0
    shm_messages: int = 0
    max_hops: int = 0
    #: per-rank counts of messages sent.
    sends_by_rank: Dict[int, int] = field(default_factory=dict)
    #: fault-layer counters: transmissions lost in transit, timeout-based
    #: retransmissions charged to the virtual clock, receive/send
    #: timeouts that fired, and ranks failed at start of run.
    messages_lost: int = 0
    retransmits: int = 0
    timeouts: int = 0
    failed_ranks: int = 0

    def record(self, src: int, nbytes: int, protocol: str, hops: int) -> None:
        self.messages += 1
        self.bytes_sent += nbytes
        if protocol == "eager":
            self.eager_messages += 1
        elif protocol == "rendezvous":
            self.rendezvous_messages += 1
        else:
            self.shm_messages += 1
        self.max_hops = max(self.max_hops, hops)
        self.sends_by_rank[src] = self.sends_by_rank.get(src, 0) + 1


# ---------------------------------------------------------------------------
# Engine internals
# ---------------------------------------------------------------------------
@dataclass
class _Message:
    src: int
    tag: int
    nbytes: int
    payload: Any
    arrival: float
    pipelined: bool = False


@dataclass
class _Request:
    """An outstanding non-blocking operation."""

    req_id: int
    kind: str  # "send" | "recv"
    source: int = -1
    tag: int = 0
    done: bool = False
    done_time: float = 0.0
    payload: Any = None
    nbytes: int = 0
    pipelined: bool = False


@dataclass
class _RankState:
    gen: Generator
    time: float = 0.0
    #: (source, tag) the rank is blocked receiving on, if any.
    waiting: Optional[Tuple[int, int]] = None
    #: completion floor from the send half of a SendRecv.
    recv_floor: float = 0.0
    done: bool = False
    result: Any = None
    #: outstanding non-blocking requests, by id.
    requests: Dict[int, _Request] = field(default_factory=dict)
    #: posted Irecvs awaiting a matching message, in posting order.
    irecv_posted: List[_Request] = field(default_factory=list)
    #: request ids a Wait/Waitall is currently blocked on.
    blocked_on: Optional[Tuple[int, ...]] = None
    #: monotonic request-id source (ids stay unique across completions).
    next_req_id: int = 0
    #: hard-failed rank (never executes; traffic to it is dropped).
    failed: bool = False
    #: bumped every resume; lets timeout events detect stale waits.
    wait_epoch: int = 0


# Event kinds: resume rank ``a`` with value ``b`` / deliver _Message
# ``b`` to rank ``a`` / call ``a``.
_ADV, _DELIVER, _OTHER = 0, 1, 2

_INF = float("inf")

#: below this wave size the numpy column setup costs more than it saves.
_MIN_VECTOR_WAVE = 8

#: wire-timing tables shared across engines with the same (hashable,
#: fault-free) network value — figure sweeps rebuild worlds per size and
#: binding, but hop counts and protocol choices depend only on the
#: network.
_WIRE_CACHES: Dict[Any, Dict[Tuple[int, int, int], Any]] = {}


class Engine:
    """Run a set of rank programs to completion over a network model."""

    def __init__(
        self,
        nranks: int,
        network: TofuDNetwork,
        binding: BindingProfile = IMB_C,
        bindings_by_rank: Optional[Dict[int, BindingProfile]] = None,
        faults: Optional[FaultPlan] = None,
        recv_timeout: Optional[float] = None,
    ):
        if nranks < 1:
            raise ValueError("need at least one rank")
        if nranks > network.topology.ranks:
            raise ValueError(
                f"{nranks} ranks exceed topology capacity "
                f"{network.topology.ranks}"
            )
        self.nranks = nranks
        self.network = network
        #: the fault model: explicit argument wins, else whatever plan
        #: the network itself was built with (one plan, two layers).
        self.faults = faults if faults is not None else network.faults
        #: virtual-clock bound on blocked receives/waits; a wait that
        #: outlives it raises RankFailedError instead of deadlocking.
        self.recv_timeout = (
            recv_timeout
            if recv_timeout is not None
            else (self.faults.recv_timeout if self.faults else None)
        )
        self._binding_default = binding
        self._bindings = bindings_by_rank or {}
        #: the single binding profile when no per-rank overrides exist —
        #: lets the endpoint cache skip the per-call profile lookup.
        self._uniform_prof = None if self._bindings else binding
        self._events: List[tuple] = []
        self._seq = itertools.count()
        self._mailbox: Dict[int, Dict[Tuple[int, int], List[_Message]]] = {
            r: {} for r in range(nranks)
        }
        self._states: List[_RankState] = []
        # Per-rank ingress channel: inter-node message bodies serialise
        # on the destination link, which makes fan-in patterns (linear
        # Gatherv) bandwidth-bound at the root.
        self._ingress_free: List[float] = [0.0] * nranks
        #: per-rank ingress-link busy seconds (serialisation charged to
        #: each destination) — the per-link utilisation the trace reports.
        self._ingress_busy: List[float] = [0.0] * nranks
        self.stats = EngineStats()
        #: recorder captured at construction; every event guard is a
        #: None check, so untraced runs pay (near) nothing.
        self._trace = get_recorder()
        #: guard monitor captured the same way; per-rank clock floors
        #: back the virtual-clock monotonicity contract — simulated time
        #: can stall but never run backwards for a rank.
        self._guard = get_guard()
        self._clock_floor: List[float] = [0.0] * nranks
        #: live (not-done) rank count; lets the loop stop the instant
        #: the last rank finishes instead of draining stale events.
        self._active = 0

        #: memoised exact timing tables.
        self._wire_cache: Dict[Tuple[int, int, int], Any] = {}
        if self.faults is None:
            try:
                self._wire_cache = _WIRE_CACHES.setdefault(network, {})
            except TypeError:
                pass  # unhashable network: keep the private table
        self._ep_cache: Dict[Tuple[int, int, bool], float] = {}
        #: flat per-message rows:
        #: (lat, ser, rdzv, shm, hops, ep_send, ep_recv, protocol).
        self._row_cache: Dict[Tuple[int, int, int], tuple] = {}
        topo = network.topology
        self._rpn = topo.ranks_per_node
        #: dense node-to-node hop counts (None for huge allocations).
        self._hops_mat = topo.hops_matrix()

        # -- wave bookkeeping ------------------------------------------
        #: counts of non-resume heap events.  Deliveries can be drained
        #: ahead of a wave (they only complete recvs or fill mailboxes);
        #: opaque calls cannot, so any of those disables waving.
        self._n_deliver = 0
        self._n_other = 0
        #: scalar events to process before re-attempting a wave, set
        #: when a wave attempt bails without consuming the heap.
        self._wave_cooldown = 0
        #: queued mailbox messages / posted irecvs anywhere — vector
        #: commits require both zero (a stale match would win first).
        self._mb_count = 0
        self._n_posted = 0
        #: waves reorder execution in ways the fault, timeout and
        #: observability layers would see, so those runs stay scalar.
        self._fast = (
            self.faults is None
            and self.recv_timeout is None
            and self._trace is None
            and self._guard is None
        )
        #: (shm, base, per_hop) latency floors for the overtaking gate —
        #: only trusted on the stock fault-free model, where any future
        #: message s→d needs at least this much flight time.
        self._lat_floor = (
            (network.shm_latency, network.base_latency,
             network.per_hop_latency)
            if type(network) is TofuDNetwork and network.faults is None
            else None
        )

    # ------------------------------------------------------------------
    def binding(self, rank: int) -> BindingProfile:
        return self._bindings.get(rank, self._binding_default)

    # -- cached timing tables ------------------------------------------
    def _wire(self, src: int, dest: int, nbytes: int):
        key = (src, dest, nbytes)
        w = self._wire_cache.get(key)
        if w is None:
            hm = self._hops_mat
            if hm is None:
                w = self.network.wire_time(src, dest, nbytes)
            else:
                h = int(hm[src // self._rpn, dest // self._rpn])
                w = self.network.wire_time(src, dest, nbytes, hops=h)
            self._wire_cache[key] = w
        return w

    def _ep(self, rank: int, nbytes: int, pipelined: bool) -> float:
        prof = self._uniform_prof
        if prof is None:
            prof = self.binding(rank)
        key = (id(prof), nbytes, pipelined)
        t = self._ep_cache.get(key)
        if t is None:
            t = prof.endpoint_time(nbytes, pipelined=pipelined)
            self._ep_cache[key] = t
        return t

    def _row(self, src: int, dest: int, nbytes: int) -> tuple:
        key = (src, dest, nbytes)
        row = self._row_cache.get(key)
        if row is None:
            w = self._wire(src, dest, nbytes)
            pipelined = w.protocol == "rendezvous"
            row = (
                w.latency_seconds,
                w.serial_seconds,
                pipelined,
                w.protocol == "shm",
                w.hops,
                self._ep(src, nbytes, pipelined),
                self._ep(dest, nbytes, pipelined),
                w.protocol,
            )
            self._row_cache[key] = row
        return row

    # -- tuple event plumbing ------------------------------------------
    def _sched_adv(self, time: float, rank: int, value: Any) -> None:
        heapq.heappush(
            self._events, (time, next(self._seq), _ADV, rank, value)
        )

    def _sched_deliver(self, time: float, dest: int, msg: _Message) -> None:
        self._n_deliver += 1
        heapq.heappush(
            self._events, (time, next(self._seq), _DELIVER, dest, msg)
        )

    def _sched_call(self, time: float, fn: Callable[[], None]) -> None:
        self._n_other += 1
        heapq.heappush(self._events, (time, next(self._seq), _OTHER, fn, None))

    def _exec(self, ev: tuple) -> None:
        kind = ev[2]
        if kind == _ADV:
            self._advance(ev[3], ev[4])
        elif kind == _DELIVER:
            self._n_deliver -= 1
            self._deliver(ev[3], ev[4])
        else:
            self._n_other -= 1
            ev[3]()

    # -- fault helpers -----------------------------------------------------
    def _cpu(self, rank: int, seconds: float) -> float:
        """Local work time, inflated for straggler ranks."""
        if self.faults is not None:
            return seconds * self.faults.compute_factor(rank)
        return seconds

    def _rank_failed(self, rank: int) -> bool:
        return self._states[rank].failed if self._states else False

    def _retransmit_delay(self, src: int, dest: int, t: float) -> float:
        """Virtual time lost to dropped transmissions before one lands.

        A message crossing an open network partition is blocked (every
        attempt lost, charged to the clock) until the cut heals; random
        loss then applies to the attempt that finally reaches the wire.
        Each lost attempt charges the transport's retransmit timeout;
        random-loss attempts are capped so a run stays finite even at
        loss_rate 1, while a partition is bounded by its own window.
        """
        plan = self.faults
        if plan is None or not plan.any_message_faults:
            return 0.0
        delay = 0.0
        if plan.partition_active:
            blocked, lost = plan.partition_delay(src, dest, t)
            if lost:
                delay += blocked
                self.stats.messages_lost += lost
                self.stats.retransmits += lost
                if self._trace is not None:
                    self._trace.event(
                        "partition", src, t,
                        dest=dest, attempts=lost, seconds=blocked,
                    )
        if plan.loss_rate <= 0.0:
            return delay
        base = t + delay
        loss_delay = 0.0
        attempts = 0
        for attempt in range(plan.max_retransmits):
            if not plan.is_lost(src, dest, base, attempt):
                break
            loss_delay += plan.retransmit_timeout
            attempts += 1
            self.stats.messages_lost += 1
            self.stats.retransmits += 1
        if loss_delay > 0.0 and self._trace is not None:
            self._trace.event(
                "retransmit", src, base,
                dest=dest, attempts=attempts, seconds=loss_delay,
            )
        return delay + loss_delay

    def _arm_timeout(self, rank: int, t: float) -> None:
        """Bound a blocked wait: if the rank is still blocked (same wait
        epoch) when the timeout expires, raise RankFailedError."""
        if self.recv_timeout is None:
            return
        state = self._states[rank]
        epoch = state.wait_epoch
        deadline = t + self.recv_timeout

        def _check() -> None:
            st = self._states[rank]
            if st.done or st.wait_epoch != epoch:
                return
            if st.waiting is None and st.blocked_on is None:
                return  # completion already scheduled, not yet resumed
            self.stats.timeouts += 1
            if self._trace is not None:
                self._trace.event(
                    "timeout", rank, deadline,
                    timeout=self.recv_timeout,
                )
            what = st.waiting if st.waiting is not None else st.blocked_on
            peer: Optional[int] = None
            if st.waiting is not None:
                peer = st.waiting[0]
            hint = ""
            if peer is not None and 0 <= peer < self.nranks and \
                    self._rank_failed(peer):
                hint = f"; rank {peer} has failed"
            raise RankFailedError(
                f"rank {rank} timed out after {self.recv_timeout:g}s "
                f"waiting on {what} at t={deadline:.3e}{hint}",
                rank=rank, peer=peer, time=deadline,
            )

        self._sched_call(deadline, _check)

    # ------------------------------------------------------------------
    def run(self, program: RankProgram, *args: Any) -> List[Any]:
        """Instantiate ``program(rank, nranks, *args)`` per rank and run.

        Returns the list of per-rank return values.
        """
        self._states = [
            _RankState(gen=program(r, self.nranks, *args))
            for r in range(self.nranks)
        ]
        for r in range(self.nranks):
            if self.faults is not None and self.faults.is_failed(r):
                # Fail-stop: the rank never executes; its result stays
                # None and every message to it is dropped on the floor.
                self._states[r].failed = True
                self._states[r].done = True
                self.stats.failed_ranks += 1
                if self._trace is not None:
                    self._trace.event("rank_failed", r, 0.0)
            else:
                self._active += 1
                self._sched_adv(0.0, r, None)
        if self.nranks and self.stats.failed_ranks == self.nranks:
            raise RankFailedError(
                f"all {self.nranks} ranks failed before start", time=0.0
            )
        self._loop()
        if self._trace is not None:
            self._publish_metrics()
        return [s.result for s in self._states]

    def _publish_metrics(self) -> None:
        """Absorb this world's :class:`EngineStats` (and the per-rank
        ingress-link utilisation) into the recorder's metrics registry.
        Counters add across worlds, so a whole sweep aggregates."""
        m = self._trace.metrics
        s = self.stats
        m.counter("mpi.messages").inc(s.messages)
        m.counter("mpi.bytes_sent").inc(s.bytes_sent)
        m.counter("mpi.messages.eager").inc(s.eager_messages)
        m.counter("mpi.messages.rendezvous").inc(s.rendezvous_messages)
        m.counter("mpi.messages.shm").inc(s.shm_messages)
        m.counter("mpi.messages.lost").inc(s.messages_lost)
        m.counter("mpi.retransmits").inc(s.retransmits)
        m.counter("mpi.timeouts").inc(s.timeouts)
        m.counter("mpi.failed_ranks").inc(s.failed_ranks)
        busy = [b for b in self._ingress_busy if b > 0.0]
        for b in busy:
            m.histogram("mpi.ingress_busy_seconds").observe(b)
        if busy:
            m.counter("mpi.ingress_busy_seconds.total").inc(sum(busy))

    def _loop(self) -> None:
        heap = self._events
        pop = heapq.heappop
        fast = self._fast
        while heap:
            if self._active == 0:
                # Every rank is done: whatever remains (stale timeout
                # probes, in-flight deliveries) can no longer change any
                # observable state, so stop instead of scanning the full
                # heap — at 10k+ ranks that drain dominated teardown.
                break
            if (
                fast
                and self._n_other == 0
                and self._wave_cooldown == 0
                and len(heap) > 1
                and self._wave()
            ):
                continue
            ev = pop(heap)
            if self._wave_cooldown:
                self._wave_cooldown -= 1
            kind = ev[2]
            if kind == _ADV:
                self._advance(ev[3], ev[4])
            elif kind == _DELIVER:
                self._n_deliver -= 1
                self._deliver(ev[3], ev[4])
            else:
                self._n_other -= 1
                ev[3]()
        self._check_deadlock()

    def _check_deadlock(self) -> None:
        """Report the first eight blocked ranks if any rank never finished."""
        blocked = [i for i, s in enumerate(self._states) if not s.done]
        if blocked:
            details = []
            for i in blocked[:8]:
                st = self._states[i]
                what = st.waiting if st.waiting else st.blocked_on
                details.append(f"rank {i} waiting on {what}")
            raise DeadlockError("; ".join(details))

    # -- the scalar path ---------------------------------------------------
    def _advance(self, rank: int, value: Any) -> None:
        """Resume a rank's generator with ``value`` and act on its yield."""
        state = self._states[rank]
        state.wait_epoch += 1
        if self._guard is not None:
            self._guard.check(
                "mpi.clock", _CLOCK_CONTRACT, state.time,
                reference=self._clock_floor[rank], rank=rank,
            )
            if state.time > self._clock_floor[rank]:
                self._clock_floor[rank] = state.time
        try:
            op = state.gen.send(value)
        except StopIteration as stop:
            state.done = True
            state.result = stop.value
            self._active -= 1
            return
        self._dispatch(rank, op)

    def _dispatch(self, rank: int, op: Any) -> None:
        state = self._states[rank]
        t = state.time
        cls = op.__class__
        if cls is SendRecv:
            inject, arrival, rdzv = self._send(
                rank, t, op.dest, op.send_tag, op.send_nbytes, op.send_payload
            )
            send_done = arrival if rdzv else inject
            if send_done == _INF:
                self._block_on_lost_send(rank, t, op.dest, op.send_tag)
                return
            self._post_recv(rank, op.source, op.recv_tag, floor=send_done)
        elif cls is Send:
            inject, arrival, rdzv = self._send(
                rank, t, op.dest, op.tag, op.nbytes, op.payload
            )
            send_done = arrival if rdzv else inject
            if send_done == _INF:
                self._block_on_lost_send(rank, t, op.dest, op.tag)
                return
            state.time = send_done
            self._sched_adv(send_done, rank, None)
        elif cls is Recv:
            self._post_recv(rank, op.source, op.tag, floor=t)
        elif cls is Compute:
            if op.seconds < 0:
                raise ValueError("negative compute time")
            seconds = self._cpu(rank, op.seconds)
            if self._trace is not None and seconds > 0.0:
                self._trace.event("compute", rank, t, seconds=seconds)
            state.time = t + seconds
            self._sched_adv(state.time, rank, None)
        elif cls is Now:
            self._sched_adv(t, rank, t)
        elif cls is Mark:
            if self._trace is not None:
                if op.info is None:
                    self._trace.event("mark", rank, t, label=op.name)
                else:
                    self._trace.event(
                        "mark", rank, t, label=op.name, info=op.info
                    )
            self._sched_adv(t, rank, None)
        elif cls is Isend:
            # Unlike the blocking path, a rendezvous Isend does not
            # stall the sender — the buffer stays in flight until Wait.
            req = self._new_request(rank, "send")
            inject, arrival, _ = self._send(
                rank, t, op.dest, op.tag, op.nbytes, op.payload
            )
            state.time = inject
            if arrival != _INF:  # never completes: dest failed
                self._sched_call(
                    arrival, partial(self._complete_send, rank, req, arrival)
                )
            # Non-blocking resumes ride as calls: waves stay off while
            # requests are in flight.
            self._sched_call(
                inject, partial(self._advance, rank, req.req_id)
            )
        elif cls is Irecv:
            if not (0 <= op.source < self.nranks):
                raise ValueError(f"irecv from invalid rank {op.source}")
            req = self._new_request(rank, "recv", source=op.source, tag=op.tag)
            key = (op.source, op.tag)
            queue = self._mailbox[rank].get(key)
            if queue:
                self._mb_count -= 1
                msg = queue.pop(0)
                if not queue:
                    del self._mailbox[rank][key]
                self._fill_recv_request(req, msg)
            else:
                state.irecv_posted.append(req)
                self._n_posted += 1
            post_done = t + self._cpu(rank, self.binding(rank).per_call_overhead)
            state.time = post_done
            self._sched_call(
                post_done, partial(self._advance, rank, req.req_id)
            )
        elif cls is Wait or cls is Waitall:
            ids = (op.request,) if cls is Wait else tuple(op.requests)
            for rid in ids:
                if rid not in state.requests:
                    raise ValueError(f"unknown request id {rid}")
            state.blocked_on = ids
            self._wake_if_ready(rank)
            if state.blocked_on is not None:
                self._arm_timeout(rank, t)
        else:
            raise TypeError(f"rank {rank} yielded unknown op {op!r}")

    def _block_on_lost_send(self, rank: int, t: float, dest: int,
                            tag: int) -> None:
        """Rendezvous send to a failed rank: the sender blocks on a pull
        that never comes (timeout/deadlock take over)."""
        self._states[rank].waiting = (dest, tag)
        self._arm_timeout(rank, t)

    def _send(
        self, src: int, t: float, dest: int, tag: int, nbytes: int, payload: Any
    ) -> Tuple[float, float, bool]:
        """Inject a message at ``t``; returns ``(inject_done, arrival,
        rendezvous)``.  ``arrival`` is ``inf`` when the destination has
        failed: the message vanishes and never completes anything."""
        if self._fast:
            # No faults, no trace: the retransmit/straggler/failed-rank
            # terms are all identities, so the cached row is the whole
            # timing model — same float chain, fewer calls.
            row = self._row_cache.get((src, dest, nbytes))
            if row is None:
                self._check_dest(src, dest)
                row = self._row(src, dest, nbytes)
            lat, ser, rdzv, shm, hops, eps, _epr, protocol = row
            inject_done = t + eps
        else:
            # Rows are per engine; here the process-wide wire table is
            # cheaper than building a row per first-seen message.
            self._check_dest(src, dest)
            w = self._wire(src, dest, nbytes)
            lat, ser, hops, protocol = (
                w.latency_seconds, w.serial_seconds, w.hops, w.protocol
            )
            rdzv = protocol == "rendezvous"
            shm = protocol == "shm"
            t += self._retransmit_delay(src, dest, t)
            inject_done = t + self._cpu(src, self._ep(src, nbytes, rdzv))
            if self._rank_failed(dest):
                self.stats.messages_lost += 1
                if self._trace is not None:
                    self._trace.event(
                        "send", src, t, dest=dest, nbytes=nbytes,
                        protocol=protocol, lost=True,
                    )
                return inject_done, _INF, rdzv
        head = inject_done + lat
        if shm:
            arrival = head + ser
        else:
            # inter-node bodies serialise on the destination's ingress
            free = self._ingress_free[dest]
            arrival = (free if free > head else head) + ser
            self._ingress_free[dest] = arrival
            self._ingress_busy[dest] += ser
        self.stats.record(src, nbytes, protocol, hops)
        if self._trace is not None:
            self._trace.event(
                "send", src, t, dest=dest, nbytes=nbytes,
                protocol=protocol, hops=hops, arrival=arrival,
            )
        self._sched_deliver(
            arrival, dest,
            _Message(src=src, tag=tag, nbytes=nbytes, payload=payload,
                     arrival=arrival, pipelined=rdzv),
        )
        return inject_done, arrival, rdzv

    def _check_dest(self, src: int, dest: int) -> None:
        if not (0 <= dest < self.nranks):
            raise ValueError(f"send to invalid rank {dest}")
        if dest == src:
            raise ValueError("self-sends are not supported (use local state)")

    def _complete_send(self, rank: int, req: _Request, arrival: float) -> None:
        req.done = True
        req.done_time = arrival
        self._wake_if_ready(rank)

    def _deliver(self, dest: int, msg: _Message) -> None:
        state = self._states[dest]
        key = (msg.src, msg.tag)
        # Posted non-blocking receives match first, in posting order.
        if state.irecv_posted:
            for i, req in enumerate(state.irecv_posted):
                if (req.source, req.tag) == key:
                    state.irecv_posted.pop(i)
                    self._n_posted -= 1
                    self._fill_recv_request(req, msg)
                    self._wake_if_ready(dest)
                    return
        if state.waiting == key:
            self._complete_recv(dest, msg)
        else:
            self._mb_count += 1
            self._mailbox[dest].setdefault(key, []).append(msg)

    def _post_recv(self, rank: int, source: int, tag: int, floor: float) -> None:
        if not (0 <= source < self.nranks):
            raise ValueError(f"recv from invalid rank {source}")
        state = self._states[rank]
        state.recv_floor = max(floor, state.time)
        key = (source, tag)
        queue = self._mailbox[rank].get(key)
        if queue:
            self._mb_count -= 1
            msg = queue.pop(0)
            if not queue:
                del self._mailbox[rank][key]
            self._complete_recv(rank, msg)
        else:
            state.waiting = key
            self._arm_timeout(rank, state.recv_floor)

    def _complete_recv(self, rank: int, msg: _Message) -> None:
        state = self._states[rank]
        state.waiting = None
        done = max(state.recv_floor, msg.arrival) + self._cpu(
            rank, self._ep(rank, msg.nbytes, msg.pipelined)
        )
        state.time = done
        if self._trace is not None:
            self._trace.event(
                "recv", rank, done, source=msg.src, nbytes=msg.nbytes,
            )
        self._sched_adv(done, rank, msg.payload)

    # -- non-blocking plumbing ---------------------------------------------
    def _new_request(
        self, rank: int, kind: str, source: int = -1, tag: int = 0
    ) -> _Request:
        state = self._states[rank]
        req = _Request(
            req_id=state.next_req_id, kind=kind, source=source, tag=tag
        )
        state.next_req_id += 1
        state.requests[req.req_id] = req
        return req

    def _fill_recv_request(self, req: _Request, msg: _Message) -> None:
        req.done = True
        req.done_time = msg.arrival
        req.payload = msg.payload
        req.nbytes = msg.nbytes
        req.pipelined = msg.pipelined

    def _wake_if_ready(self, rank: int) -> None:
        """Resume a rank blocked in Wait/Waitall once all requests are done."""
        state = self._states[rank]
        if state.blocked_on is None:
            return
        reqs = [state.requests[rid] for rid in state.blocked_on]
        if not all(r.done for r in reqs):
            return
        ids = state.blocked_on
        state.blocked_on = None
        t = state.time
        payloads = []
        for r in reqs:
            t = max(t, r.done_time)
            if r.kind == "recv":
                # copy-out happens at completion time, serially on the CPU
                t += self._cpu(rank, self._ep(rank, r.nbytes, r.pipelined))
            payloads.append(r.payload if r.kind == "recv" else None)
        state.time = t
        for rid in ids:
            del state.requests[rid]
        value = payloads[0] if len(ids) == 1 else payloads
        self._sched_adv(t, rank, value)

    # -- wave machinery -------------------------------------------------
    def _wave(self) -> bool:
        """Pop the heap as one resume wave and commit it batched.

        Pending deliveries are drained first — sound only when each one
        (a) directly completes a distinct waiting rank (no mailboxing,
        no irecv matching), and (b) cannot be *overtaken*: the message's
        source rank could wake first and inject a second same-key
        message that arrives sooner — in strict ``(time, seq)`` order
        the earlier arrival wins the match (same-tag messages
        overtake each other on fast wires).  (b) holds when the source's
        earliest scheduled event plus the s→d minimum wire latency is no
        earlier than the delivery's arrival: a competing message must be
        sent after its source's next resume and still fly the same wire,
        and ties go to the already-scheduled delivery (lower seq).
        Soundness of the whole drain follows from the *first* competing
        message in virtual time: its sender resumed via its scheduled
        event (nothing competed before it), so the message lands at or
        after the arrival it would have to beat.  If any delivery fails
        either test the heap is left untouched and False is returned
        (with a cooldown so the scan cost stays amortised).  After the
        drain the wave is the complete set of pending resumes; a
        homogeneous lockstep round commits vectorised, anything else
        falls back to an exact-order scalar drain.
        """
        heap = self._events
        states = self._states
        if self._n_deliver:
            # Earliest scheduled event per rank (the heap is pure
            # ADV/DELIVER here — _loop gates on _n_other == 0 — so ev[3]
            # is always the owning rank).
            earliest: Dict[int, float] = {}
            for ev in heap:
                t0 = earliest.get(ev[3])
                if t0 is None or ev[0] < t0:
                    earliest[ev[3]] = ev[0]
            lf = self._lat_floor
            hm = self._hops_mat
            rpn = self._rpn
            seen = set()
            for ev in heap:
                if ev[2] != _ADV:
                    dest = ev[3]
                    msg = ev[4]
                    st = states[dest]
                    src = msg.src
                    if states[src].done:
                        src_ok = True  # finished ranks cannot send again
                    else:
                        src_t = earliest.get(src)
                        if src_t is None:
                            src_ok = False
                        elif src_t >= ev[0]:
                            src_ok = True
                        elif lf is None:
                            src_ok = False
                        else:
                            sn, dn = src // rpn, dest // rpn
                            if sn == dn:
                                lat = lf[0]
                            elif hm is not None:
                                lat = lf[1] + int(hm[sn, dn]) * lf[2]
                            else:
                                lat = lf[1]
                            src_ok = src_t + lat >= ev[0]
                    if (
                        st.irecv_posted
                        or st.waiting != (msg.src, msg.tag)
                        or dest in seen
                        or not src_ok
                    ):
                        self._wave_cooldown = max(self._n_deliver, 1)
                        return False
                    seen.add(dest)
            first = sorted(heap)
            del heap[:]
            wave: List[tuple] = []
            drained: List[tuple] = []
            for ev in first:
                if ev[2] == _ADV:
                    wave.append(ev)
                else:
                    self._n_deliver -= 1
                    self._deliver(ev[3], ev[4])
                    # the delivery's one resume joins the wave; keep
                    # the delivery's key so the scalar drain can hand
                    # the resume its seq where the delivery would pop
                    drained.append((ev[0], ev[1], ev[3]))
            wave.extend(heap)
            del heap[:]
            wave.sort()
        else:
            wave = sorted(heap)
            del heap[:]
            drained = []
        ops: List[Any] = []
        sr: List[int] = []
        batchable = True
        for ev in wave:
            st = states[ev[3]]
            try:
                op = st.gen.send(ev[4])
            except StopIteration as stop:
                st.done = True
                st.result = stop.value
                self._active -= 1
                ops.append(None)
                continue
            ops.append(op)
            cls = op.__class__
            # Members are batchable when they are benchmark-path
            # SendRecvs or *neutral* ops — Compute / Now / Mark dispatch
            # touches nothing shared (own clock + one resume event), so
            # those commit in wave order with no time gate.
            if cls is SendRecv:
                if op.send_payload is None:
                    sr.append(len(ops) - 1)
                else:
                    batchable = False
            elif cls is Compute:
                if op.seconds < 0:
                    batchable = False  # scalar path raises the error
            elif cls is not Now and cls is not Mark:
                batchable = False
        if batchable and len(wave) >= _MIN_VECTOR_WAVE:
            if not sr:
                self._commit_neutral_wave(wave, ops)
                return True
            if (
                self._mb_count == 0
                and self._n_posted == 0
                and self._commit_sendrecv_wave(wave, ops, sr)
            ):
                return True
        self._drain_scalar(wave, ops, drained)
        return True

    def _commit_sendrecv_wave(
        self, wave: List[tuple], ops: List[Any], sr: List[int]
    ) -> bool:
        """Vector-commit a lockstep pairwise-exchange round.

        ``sr`` indexes the SendRecv members; the rest of the wave must
        be neutral (committed here too, first, in wave order).  Requires
        a full bijective pairing *within* the SendRecv subset and that
        every computed completion strictly follows the latest member
        resume (otherwise the scalar path could interleave another
        dispatch into this round).  Returns False — with no state
        mutated — when ineligible.
        """
        m = len(sr)
        nranks = self.nranks
        srcs = np.fromiter((wave[w][3] for w in sr), np.intp, count=m)
        dests = np.fromiter((ops[w].dest for w in sr), np.intp, count=m)
        sources = np.fromiter((ops[w].source for w in sr), np.intp, count=m)
        stags = np.fromiter((ops[w].send_tag for w in sr), np.int64, count=m)
        rtags = np.fromiter((ops[w].recv_tag for w in sr), np.int64, count=m)
        nb = np.fromiter((ops[w].send_nbytes for w in sr), np.int64, count=m)
        if (
            dests.min() < 0
            or dests.max() >= nranks
            or sources.min() < 0
            or sources.max() >= nranks
            or (dests == srcs).any()
        ):
            return False  # scalar path raises the proper error
        # Bijective intra-wave pairing, checked in both directions via
        # the inverse permutation (member ranks are unique, so duplicate
        # partners fail the source/tag equations).
        perm = np.full(nranks, -1, dtype=np.intp)
        perm[srcs] = np.arange(m, dtype=np.intp)
        j = perm[dests]
        pair = perm[sources]
        if j.min() < 0 or pair.min() < 0:
            return False
        if not (
            (sources[j] == srcs).all()
            and (rtags[j] == stags).all()
            and (dests[pair] == srcs).all()
            and (stags[pair] == rtags).all()
        ):
            return False

        net = self.network
        prof = self._uniform_prof
        hm = self._hops_mat
        nb0 = int(nb[0])
        if (
            prof is not None
            and hm is not None
            and type(net) is TofuDNetwork
            and net.faults is None
            and int(nb.min()) == nb0 == int(nb.max())
        ):
            # Uniform round on the stock network model: evaluate the
            # wire/endpoint formulas as columns (same operation order as
            # the scalar chain, so identical float64 results).
            ns = srcs // self._rpn
            nd = dests // self._rpn
            hops_col = hm[ns, nd]
            shm = ns == nd
            rdzv_b = nb0 > net.eager_threshold
            lat = net.base_latency + hops_col * float(net.per_hop_latency)
            if rdzv_b:
                lat = lat + net.rendezvous_overhead
            lat = np.where(shm, net.shm_latency, lat)
            ser = np.where(
                shm, nb0 / net.shm_bandwidth, nb0 / net.link_bandwidth
            )
            # shm messages never pipeline, mirroring _row's protocol test.
            ep_e = self._ep(0, nb0, False)
            if rdzv_b:
                eps = np.where(shm, ep_e, self._ep(0, nb0, True))
            else:
                eps = ep_e
            epr = eps
            rdzv = np.logical_and(rdzv_b, ~shm)
            max_hops = int(np.where(shm, 0, hops_col).max())
            n_shm = int(shm.sum())
            n_rdzv = int(rdzv.sum()) if rdzv_b else 0
            bytes_sent = nb0 * m
        else:
            row = self._row
            rows = [row(int(srcs[i]), int(dests[i]), int(nb[i]))
                    for i in range(m)]
            lat = np.array([rw[0] for rw in rows])
            ser = np.array([rw[1] for rw in rows])
            rdzv = np.array([rw[2] for rw in rows])
            shm = np.array([rw[3] for rw in rows])
            eps = np.array([rw[5] for rw in rows])
            epr = np.array([rw[6] for rw in rows])
            max_hops = max(rw[4] for rw in rows)
            n_shm = int(shm.sum())
            n_rdzv = int(rdzv.sum())
            bytes_sent = int(nb.sum())
        t = np.fromiter((wave[w][0] for w in sr), np.float64, count=m)
        dl = dests.tolist()
        ingress_free = self._ingress_free

        # Identical float64 chain to the scalar path, one column at a
        # time: inject, head-of-message flight, ingress serialisation
        # (each dest receives exactly one message — the pairing is a
        # bijection — so the gather/scatter cannot race), arrival.
        inject = t + eps
        head = inject + lat
        start = np.maximum(head, np.array([ingress_free[d] for d in dl]))
        arrival = np.where(shm, head + ser, start + ser)
        send_done = np.where(rdzv, arrival, inject)
        # Member i's resume charges *its own* receive endpoint for the
        # *incoming* message — row pair[i]'s ep_recv (that row's dest is
        # i, its nbytes/protocol are the incoming message's).
        if isinstance(epr, np.ndarray):
            epr = epr[pair]
        done = np.maximum(np.maximum(send_done, t), arrival[pair]) + epr
        if not done.min() > wave[-1][0]:
            return False  # a completion could overtake a member resume

        arrival_f = arrival.tolist()
        ser_f = ser.tolist()
        done_f = done.tolist()
        ingress_busy = self._ingress_busy
        shm_f = shm.tolist()
        for i in range(m):
            if not shm_f[i]:
                d = dl[i]
                ingress_free[d] = arrival_f[i]
                ingress_busy[d] += ser_f[i]

        s = self.stats
        s.messages += m
        s.bytes_sent += bytes_sent
        s.shm_messages += n_shm
        s.rendezvous_messages += n_rdzv
        s.eager_messages += m - n_shm - n_rdzv
        s.max_hops = max(s.max_hops, max_hops)
        sends = s.sends_by_rank
        for w in sr:
            r = wave[w][3]
            sends[r] = sends.get(r, 0) + 1

        # Neutral members first: the scalar path hands out their resume
        # seqs at dispatch (wave order), before the delivery-time seqs.
        if m != len(wave):
            self._commit_neutral_wave(wave, ops, skip=set(sr), defer=True)

        # SendRecv resumes are heap-ordered by (done, seq); the scalar
        # path hands out member i's resume seq when the deliver of its
        # *incoming* message pops — ordered by that message's arrival,
        # ties broken by its deliver seq, which was assigned when the
        # partner pair[i] dispatched its send (wave order).
        heap = self._events
        seq = self._seq
        states = self._states
        for i in np.lexsort((pair, arrival[pair])).tolist():
            d = done_f[i]
            r = wave[sr[i]][3]
            states[r].time = d
            heap.append((d, next(seq), _ADV, r, None))
        heapq.heapify(heap)
        return True

    def _commit_neutral_wave(
        self,
        wave: List[tuple],
        ops: List[Any],
        skip: Optional[set] = None,
        defer: bool = False,
    ) -> None:
        """Commit neutral members (Compute / Now / Mark / finished) in
        wave order — their dispatches touch no shared engine state, so
        no time gate is needed."""
        heap = self._events
        seq = self._seq
        states = self._states
        cpu = self._cpu
        for i, ev in enumerate(wave):
            if skip is not None and i in skip:
                continue
            op = ops[i]
            if op is None:
                continue
            r = ev[3]
            t = ev[0]
            cls = op.__class__
            if cls is Compute:
                d = t + cpu(r, op.seconds)
                states[r].time = d
                heap.append((d, next(seq), _ADV, r, None))
            elif cls is Now:
                heap.append((t, next(seq), _ADV, r, t))
            else:  # Mark (no trace in fast mode)
                heap.append((t, next(seq), _ADV, r, None))
        if not defer:
            heapq.heapify(heap)

    def _drain_scalar(
        self, wave: List[tuple], ops: List[Any], drained: List[tuple]
    ) -> None:
        """Dispatch an already-resumed wave in exact scalar-path order,
        interleaving any events the dispatches schedule.

        ``drained`` lists the ``(time, seq, rank)`` keys of deliveries
        the wave committed early, in key order.  On the scalar path each
        would have handed its rank's resume a seq only when it popped —
        after every event ordered before it, including resumes that
        dispatches below schedule.  So the resume's seq is re-issued
        when the cursor passes the delivery's key, and an exact time tie
        with such a resume dispatches in scalar-path order.  Re-issuing
        never reorders the wave itself: the drained resumes' seqs were
        already above every other member's and are re-issued in the
        same order.
        """
        heap = self._events
        pop = heapq.heappop
        i = 0
        m = len(wave)
        if drained:
            seq = self._seq
            where = {ev[3]: j for j, ev in enumerate(wave)}
            k = 0
            nd = len(drained)
        while i < m:
            ev = wave[i]
            nxt = heap[0] if heap and heap[0] < ev else ev
            if drained and k < nd and drained[k] < nxt:
                j = where[drained[k][2]]
                old = wave[j]
                wave[j] = (old[0], next(seq), _ADV, old[3], old[4])
                k += 1
                continue
            if nxt is not ev:
                self._exec(pop(heap))
                continue
            op = ops[i]
            i += 1
            if op is not None:
                self._dispatch(ev[3], op)
