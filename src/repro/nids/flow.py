"""Flow assembly: grouping packets into bidirectional flows.

A *flow* is identified by the canonical 5-tuple (both directions map to the
same flow).  The :class:`FlowTable` ingests time-ordered packets, keeps active
flows, and expires them on an idle timeout -- the same mechanism CICFlowMeter
uses to produce the flow records behind the CIC datasets.

Two ingestion paths share identical semantics:

``FlowTable.add_packet``
    The scalar path: one packet at a time, used by interactive pushes.

``FlowTable.add_packets``
    The columnar path.  :func:`columnarize_packets` pulls each packet field
    into an array with one C-level ``map`` and factorizes the batch by its
    *directed* 5-tuples -- one dict probe per packet; the canonical
    (direction-independent) key and the packet's direction are then derived
    once per distinct directed tuple, not once per packet.  Every per-flow
    statistic (byte/packet counters, length moments, inter-arrival moments,
    TCP flag counts, port diversity) is filled with array reductions, and
    each aggregate column is converted to Python scalars once (``tolist``)
    before the records are built -- no per-packet or per-field NumPy scalar
    churn on the hot path.  Flow records store *running aggregates* (sums,
    sums of squares, extrema) rather than per-packet ``List[int]`` buffers,
    so a record costs O(1) memory regardless of flow length and batch
    aggregation is a handful of segment reductions.  The cluster transport's
    ``PacketFrame.from_packets`` builds its wire columns with the same
    helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nids.packets import Packet, TCP_FLAGS

#: Batches smaller than this are cheaper through the scalar path (array
#: setup costs more than it saves).
_COLUMNAR_MIN_BATCH = 32

#: TCP flag bits in the order of the ``FlowRecord`` counters.
_FLAG_BITS = np.array([TCP_FLAGS[name] for name in ("SYN", "FIN", "RST", "PSH", "ACK", "URG")])


#: A canonical flow key as a plain tuple ``(ip_a, port_a, ip_b, port_b, protocol)``.
FlowTuple = Tuple[str, int, str, int, str]


_DIRECTED = attrgetter("src_ip", "src_port", "dst_ip", "dst_port", "protocol")


def _canonical(directed: FlowTuple) -> Tuple[FlowTuple, bool]:
    """The canonical form of a directed 5-tuple, and whether its source is
    the canonical A endpoint (the lesser of the two endpoints)."""
    src_ip, src_port, dst_ip, dst_port, protocol = directed
    if (src_ip, src_port, dst_ip, dst_port) <= (dst_ip, dst_port, src_ip, src_port):
        return directed, True
    return (dst_ip, dst_port, src_ip, src_port, protocol), False


def _canonical_tuple(packet: Packet) -> FlowTuple:
    """The canonical (direction-independent) 5-tuple of ``packet``."""
    return _canonical(_DIRECTED(packet))[0]


@dataclass(frozen=True)
class FlowKey:
    """Canonical bidirectional flow identifier.

    The canonical form orders the two endpoints so that packets of both
    directions hash to the same key.
    """

    ip_a: str
    port_a: int
    ip_b: str
    port_b: int
    protocol: str

    @classmethod
    def from_packet(cls, packet: Packet) -> "FlowKey":
        """Build the canonical key for ``packet``."""
        return cls(*_canonical_tuple(packet))

    @property
    def token(self) -> str:
        """Canonical string form of the key (direction-independent).

        The same token identifies a flow everywhere it travels: the shard
        router hashes it, the replay subsystem joins serving-path
        predictions against golden offline predictions on it, and worker
        processes ship it back across the cluster wire format.
        """
        return f"{self.ip_a}:{self.port_a}|{self.ip_b}:{self.port_b}|{self.protocol}"


@dataclass
class FlowRecord:
    """Aggregated statistics of one bidirectional flow.

    The *forward* direction is defined by the first packet seen.  All
    statistics are running aggregates (counts, sums, sums of squares,
    extrema), so folding a packet -- or a whole pre-reduced packet batch --
    into the record is O(1); the feature extractor derives means and standard
    deviations from the moments.  Packets are assumed to arrive in time
    order (the :class:`FlowTable` contract), which is what makes the
    inter-arrival aggregates equal to the sorted-timestamp differences the
    original list-based implementation computed.
    """

    key: FlowKey
    initiator_ip: str
    initiator_port: int
    start_time: float
    end_time: float
    label: str = "benign"
    fwd_packets: int = 0
    bwd_packets: int = 0
    fwd_bytes: int = 0
    bwd_bytes: int = 0
    fwd_len_sumsq: float = 0.0
    fwd_len_min: float = math.inf
    fwd_len_max: float = -math.inf
    bwd_len_sumsq: float = 0.0
    iat_count: int = 0
    iat_sum: float = 0.0
    iat_sumsq: float = 0.0
    iat_min: float = math.inf
    iat_max: float = -math.inf
    last_packet_time: float = 0.0
    syn_count: int = 0
    fin_count: int = 0
    rst_count: int = 0
    psh_count: int = 0
    ack_count: int = 0
    urg_count: int = 0
    distinct_dst_ports: Set[int] = field(default_factory=set)

    # ------------------------------------------------------------------- API
    def add_packet(self, packet: Packet) -> None:
        """Fold ``packet`` into the flow statistics."""
        is_forward = (
            packet.src_ip == self.initiator_ip and packet.src_port == self.initiator_port
        )
        if self.total_packets > 0:
            iat = packet.timestamp - self.last_packet_time
            self.iat_count += 1
            self.iat_sum += iat
            self.iat_sumsq += iat * iat
            if iat < self.iat_min:
                self.iat_min = iat
            if iat > self.iat_max:
                self.iat_max = iat
        self.last_packet_time = packet.timestamp
        self.end_time = max(self.end_time, packet.timestamp)
        length = packet.length
        if is_forward:
            self.fwd_packets += 1
            self.fwd_bytes += length
            self.fwd_len_sumsq += float(length) * length
            if length < self.fwd_len_min:
                self.fwd_len_min = length
            if length > self.fwd_len_max:
                self.fwd_len_max = length
            self.distinct_dst_ports.add(packet.dst_port)
        else:
            self.bwd_packets += 1
            self.bwd_bytes += length
            self.bwd_len_sumsq += float(length) * length
        if packet.protocol == "tcp":
            flags = packet.tcp_flags
            self.syn_count += bool(flags & TCP_FLAGS["SYN"])
            self.fin_count += bool(flags & TCP_FLAGS["FIN"])
            self.rst_count += bool(flags & TCP_FLAGS["RST"])
            self.psh_count += bool(flags & TCP_FLAGS["PSH"])
            self.ack_count += bool(flags & TCP_FLAGS["ACK"])
            self.urg_count += bool(flags & TCP_FLAGS["URG"])
        # A flow carrying any attack packet is labeled with that attack.
        if packet.label != "benign" and self.label == "benign":
            self.label = packet.label

    def _absorb(self, later: "FlowRecord") -> None:
        """Fold ``later`` -- this flow's next packets, already reduced -- in."""
        self.end_time = max(self.end_time, later.end_time)
        self.last_packet_time = later.last_packet_time
        self.fwd_packets += later.fwd_packets
        self.bwd_packets += later.bwd_packets
        self.fwd_bytes += later.fwd_bytes
        self.bwd_bytes += later.bwd_bytes
        self.fwd_len_sumsq += later.fwd_len_sumsq
        self.bwd_len_sumsq += later.bwd_len_sumsq
        self.fwd_len_min = min(self.fwd_len_min, later.fwd_len_min)
        self.fwd_len_max = max(self.fwd_len_max, later.fwd_len_max)
        self.iat_count += later.iat_count
        self.iat_sum += later.iat_sum
        self.iat_sumsq += later.iat_sumsq
        self.iat_min = min(self.iat_min, later.iat_min)
        self.iat_max = max(self.iat_max, later.iat_max)
        self.syn_count += later.syn_count
        self.fin_count += later.fin_count
        self.rst_count += later.rst_count
        self.psh_count += later.psh_count
        self.ack_count += later.ack_count
        self.urg_count += later.urg_count
        self.distinct_dst_ports |= later.distinct_dst_ports
        if later.label != "benign" and self.label == "benign":
            self.label = later.label

    @property
    def duration(self) -> float:
        """Flow duration in seconds (0 for single-packet flows)."""
        return max(0.0, self.end_time - self.start_time)

    @property
    def total_packets(self) -> int:
        """Total packets in both directions."""
        return self.fwd_packets + self.bwd_packets

    @property
    def total_bytes(self) -> int:
        """Total bytes in both directions."""
        return self.fwd_bytes + self.bwd_bytes

    @classmethod
    def from_first_packet(cls, packet: Packet) -> "FlowRecord":
        """Start a new flow record from its first packet."""
        record = cls(
            key=FlowKey.from_packet(packet),
            initiator_ip=packet.src_ip,
            initiator_port=packet.src_port,
            start_time=packet.timestamp,
            end_time=packet.timestamp,
        )
        record.add_packet(packet)
        return record


class PacketColumns(NamedTuple):
    """A packet batch as columns, factorized by canonical flow.

    ``slots`` indexes ``flow_tuples`` (canonical keys in first-seen order;
    every key has at least one packet); ``src_is_a`` says whether the
    packet's source is the key's A endpoint.  ``flags`` is zeroed for
    non-TCP packets (the flow engine reads flags only for TCP).
    """

    slots: np.ndarray
    src_is_a: np.ndarray
    flow_tuples: List[FlowTuple]
    ts: np.ndarray
    lengths: np.ndarray
    flags: np.ndarray
    sports: np.ndarray
    dports: np.ndarray
    labels: List[str]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal values starts."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _column(packets: Sequence[Packet], name: str, dtype) -> np.ndarray:
    return np.fromiter(map(attrgetter(name), packets), dtype=dtype, count=len(packets))


def columnarize_packets(packets: Sequence[Packet]) -> PacketColumns:
    """Columnarize a packet batch and factorize it by canonical flow.

    The batch is factorized by its *directed* 5-tuples (one dict probe per
    packet, in C); the canonical key and the direction are then derived
    once per distinct directed tuple.  Canonical keys keep the order in
    which their first packet appears, exactly as a per-packet pass would
    number them.
    """
    n = len(packets)
    directed = list(map(_DIRECTED, packets))
    ids: Dict[FlowTuple, int] = dict.fromkeys(directed, 0)
    slot_of: Dict[FlowTuple, int] = {}
    flow_tuples: List[FlowTuple] = []
    # Per distinct directed tuple: canonical slot, source-is-A, TCP, ports.
    rows: List[Tuple[int, bool, bool, int, int]] = []
    for i, d in enumerate(ids):
        ids[d] = i
        kt, src_a = _canonical(d)
        slot = slot_of.setdefault(kt, len(flow_tuples))
        if slot == len(flow_tuples):
            flow_tuples.append(kt)
        rows.append((slot, src_a, d[4] == "tcp", d[1], d[3]))
    dirs = np.fromiter(map(ids.__getitem__, directed), dtype=np.int64, count=n)
    slots, src_a, tcp, sports, dports = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    flags = _column(packets, "tcp_flags", np.int64)
    flags[tcp[dirs] == 0] = 0
    return PacketColumns(
        slots=slots[dirs],
        src_is_a=src_a[dirs].astype(bool),
        flow_tuples=flow_tuples,
        ts=_column(packets, "timestamp", np.float64),
        lengths=_column(packets, "length", np.int64),
        flags=flags,
        sports=sports[dirs],
        dports=dports[dirs],
        labels=list(map(attrgetter("label"), packets)),
    )


class FlowTable:
    """Assembles packets into flows with an idle-timeout expiry policy.

    Parameters
    ----------
    idle_timeout:
        A flow is expired (emitted) once no packet has been seen for this many
        seconds.
    max_flow_duration:
        Long-lived flows are force-expired after this duration so streaming
        detection does not wait forever.
    shard_guard:
        Optional ownership predicate ``FlowKey -> bool``.  In sharded cluster
        serving each flow's state must live on exactly one worker (the
        router's invariant); a table owned by one shard installs its guard
        here and a misrouted packet -- which would silently split one flow's
        state across two replicas -- raises :class:`ConfigurationError`
        instead.  Checked once per flow key, not per packet.
    """

    def __init__(
        self,
        idle_timeout: float = 5.0,
        max_flow_duration: float = 120.0,
        shard_guard: Optional[Callable[["FlowKey"], bool]] = None,
    ):
        if idle_timeout <= 0 or max_flow_duration <= 0:
            raise ConfigurationError("timeouts must be positive")
        self.idle_timeout = float(idle_timeout)
        self.max_flow_duration = float(max_flow_duration)
        self.shard_guard = shard_guard
        # Keyed by the canonical tuple (C-level hashing); records carry the
        # FlowKey.
        self._active: Dict[FlowTuple, FlowRecord] = {}

    # ------------------------------------------------------------------- API
    @property
    def active_flows(self) -> int:
        """Number of currently active (unexpired) flows."""
        return len(self._active)

    def is_open(self, flow: FlowTuple) -> bool:
        """Whether the flow with canonical tuple ``flow`` is active (the
        cluster worker's liveness-watermark check)."""
        return flow in self._active

    def add_packet(self, packet: Packet) -> List[FlowRecord]:
        """Ingest one packet; returns any flows expired by the packet's timestamp."""
        expired = self._expire(packet.timestamp)
        kt = _canonical_tuple(packet)
        record = self._active.get(kt)
        if record is None:
            self._check_ownership(FlowKey(*kt))
            self._active[kt] = FlowRecord.from_first_packet(packet)
        else:
            record.add_packet(packet)
        return expired

    def add_packets(self, packets: Sequence[Packet]) -> List[FlowRecord]:
        """Ingest a time-ordered packet batch; returns flows expired along the way.

        Large batches take the columnar path: per-flow statistics are filled
        with array reductions over the whole batch instead of per-packet
        Python updates.  The returned flow set is identical to feeding the
        packets one at a time through :meth:`add_packet` (ordering of the
        returned list may differ).
        """
        packets = list(packets)
        if len(packets) < _COLUMNAR_MIN_BATCH:
            return self._add_packets_scalar(packets)
        return self._add_packets_columnar(packets)

    def flush(self) -> List[FlowRecord]:
        """Expire and return all remaining active flows (end of capture)."""
        flows = list(self._active.values())
        self._active.clear()
        return flows

    # ------------------------------------------------------------- internals
    def _check_ownership(self, key: FlowKey) -> None:
        if self.shard_guard is not None and not self.shard_guard(key):
            raise ConfigurationError(
                f"flow {key} does not belong to this table's shard; a misrouted "
                "packet would split one flow's state across worker replicas"
            )

    def _add_packets_scalar(self, packets: List[Packet]) -> List[FlowRecord]:
        completed: List[FlowRecord] = []
        for packet in packets:
            completed.extend(self.add_packet(packet))
        return completed

    def _expire(self, now: float) -> List[FlowRecord]:
        expired: List[FlowRecord] = []
        stale_keys = [
            key
            for key, record in self._active.items()
            if (now - record.end_time) > self.idle_timeout
            or (now - record.start_time) > self.max_flow_duration
        ]
        for key in stale_keys:
            expired.append(self._active.pop(key))
        return expired

    def _fold_key_scalar(self, key: FlowTuple, packets: List[Packet]) -> List[FlowRecord]:
        """Scalar fold of one key's packets, without touching other flows.

        Used by the columnar path for the rare keys that need sequential
        duration splitting (a segment overrunning ``max_flow_duration``
        restarts the flow mid-stream, which has a loop-carried dependency).
        """
        completed: List[FlowRecord] = []
        record = self._active.pop(key, None)
        for packet in packets:
            if record is not None and (
                (packet.timestamp - record.end_time) > self.idle_timeout
                or (packet.timestamp - record.start_time) > self.max_flow_duration
            ):
                completed.append(record)
                record = None
            if record is None:
                record = FlowRecord.from_first_packet(packet)
            else:
                record.add_packet(packet)
        if record is not None:
            self._active[key] = record
        return completed

    def _add_packets_columnar(self, packets: List[Packet]) -> List[FlowRecord]:
        return self._ingest_columns(columnarize_packets(packets), lambda: packets)

    def add_frame(self, frame) -> List[FlowRecord]:
        """Ingest a columnar transport frame (``repro.cluster.ring``).

        The frame already carries the :class:`PacketColumns` the columnar
        path would build from ``Packet`` objects, so the worker pays no
        per-packet Python loop.  ``frame`` is duck-typed
        (``columns()``/``to_packets()``/``n_packets``) so this module stays
        import-free of the transport.  The result is identical to
        ``add_packets(frame.to_packets())``.
        """
        if frame.n_packets < _COLUMNAR_MIN_BATCH:
            return self._add_packets_scalar(frame.to_packets())
        return self._ingest_columns(frame.columns(), frame.to_packets)

    def _ingest_columns(
        self, cols: PacketColumns, packets_provider: Callable[[], List[Packet]]
    ) -> List[FlowRecord]:
        """The vectorized ingestion core shared by packets and frames.

        ``cols.slots`` factorizes packets onto ``cols.flow_tuples``
        (first-seen order); ``packets_provider`` materializes the batch as
        ``Packet`` objects only for the rare fallbacks (non-monotonic
        timestamps, duration overrun) that need the sequential reference
        path.
        """
        ts = cols.ts
        n = int(ts.size)
        idle = self.idle_timeout
        max_dur = self.max_flow_duration

        # The columnar semantics rely on time-ordered input (the documented
        # FlowTable contract); fall back to the scalar path otherwise.
        if np.any(np.diff(ts) < 0):
            return self._add_packets_scalar(packets_provider())

        flow_tuples = cols.flow_tuples
        n_slots = len(flow_tuples)
        if self.shard_guard is not None:
            # Keys already active were validated when their flow was created;
            # only new keys pay the ownership check (once per flow, as the
            # class docstring promises -- not once per batch).
            for kt in flow_tuples:
                if kt not in self._active:
                    self._check_ownership(FlowKey(*kt))

        # ---- group by flow, preserving time order within each flow --------
        order = np.argsort(cols.slots, kind="stable")
        g_slot = cols.slots[order]
        g_ts = ts[order]
        slot_first = _run_starts(g_slot)
        gap = np.empty(n, dtype=np.float64)
        gap[0] = np.inf
        gap[1:] = g_ts[1:] - g_ts[:-1]
        gap[slot_first] = np.inf

        # ---- merge-with-active decisions ----------------------------------
        # Every slot occurs in the batch, so slot j starts at slot_start_pos[j].
        slot_start_pos = np.flatnonzero(slot_first)
        merged_record: List[Optional[FlowRecord]] = list(map(self._active.get, flow_tuples))
        merged = np.zeros(n_slots, dtype=bool)
        merged_start = np.zeros(n_slots, dtype=np.float64)
        completed: List[FlowRecord] = []
        for j in [j for j, record in enumerate(merged_record) if record is not None]:
            record = merged_record[j]
            pos = int(slot_start_pos[j])
            t0 = float(g_ts[pos])
            if (t0 - record.end_time) <= idle and (t0 - record.start_time) <= max_dur:
                merged[j] = True
                merged_start[j] = record.start_time
                gap[pos] = t0 - record.last_packet_time
            else:
                # The active flow is superseded by this batch's first packet.
                merged_record[j] = None
                completed.append(self._active.pop(flow_tuples[j]))

        # ---- candidate segments (gap splits) ------------------------------
        def derive_segments(g_slot, g_ts, gap):
            """Segment structure for grouped arrays whose ``gap`` already
            carries merge-bridge values at merged slot firsts.  Segment 0 of
            a slot whose active record merges continues that record (its
            start time is the record's, and it is flagged in ``seg_merge``)."""
            slot_first = _run_starts(g_slot)
            seg_break = slot_first | (gap > idle)
            seg = np.cumsum(seg_break) - 1
            seg_start_pos = np.flatnonzero(seg_break)
            seg_end_pos = np.append(seg_start_pos[1:] - 1, g_ts.size - 1)
            seg_slot = g_slot[seg_start_pos]
            seg_merge = slot_first[seg_start_pos] & merged[seg_slot]
            seg_start_time = np.where(seg_merge, merged_start[seg_slot], g_ts[seg_start_pos])
            return seg_break, seg, seg_start_pos, seg_end_pos, seg_slot, seg_merge, seg_start_time

        seg_break, seg, seg_start_pos, seg_end_pos, seg_slot, seg_merge, seg_start_time = (
            derive_segments(g_slot, g_ts, gap)
        )
        seg_t1 = g_ts[seg_end_pos]

        # ---- duration-overrun slots take the scalar fold ------------------
        overrun = (seg_t1 - seg_start_time) > max_dur
        if np.any(overrun):
            packets = packets_provider()
            bad_slots = set(int(j) for j in np.unique(seg_slot[overrun]))
            keep = ~np.isin(g_slot, list(bad_slots))
            for j in sorted(bad_slots):
                key = flow_tuples[j]
                record = merged_record[j]
                if record is not None:
                    # _fold_key_scalar resumes from the active record.
                    self._active[key] = record
                slot_packets = [packets[i] for i in order[g_slot == j]]
                completed.extend(self._fold_key_scalar(key, slot_packets))
            if not np.any(keep):
                completed.extend(self._expire(float(ts[-1])))
                return completed
            # Restrict the columnar arrays to the surviving slots and
            # re-derive.  Whole slots are removed together, so gaps
            # (including merge-bridge values at slot firsts) survive the
            # masking unchanged.
            g_slot = g_slot[keep]
            g_ts = g_ts[keep]
            order = order[keep]
            gap = gap[keep]
            seg_break, seg, seg_start_pos, seg_end_pos, seg_slot, seg_merge, _ = (
                derive_segments(g_slot, g_ts, gap)
            )
            seg_t1 = g_ts[seg_end_pos]
        seg_t0 = g_ts[seg_start_pos]
        n_seg = seg_start_pos.size
        n_kept = g_ts.size

        # ---- per-packet derived arrays ------------------------------------
        g_len = cols.lengths[order]
        g_src_a = cols.src_is_a[order]
        g_label = np.asarray(cols.labels, dtype=object)[order]

        # Direction: forward packets come from the segment's initiator, one
        # of the canonical key's two endpoints.  A new segment's initiator is
        # its first packet's source; a merged one keeps the record's.
        init_is_a = g_src_a[seg_start_pos]
        for s in np.flatnonzero(seg_merge).tolist():
            j = int(seg_slot[s])
            record, kt = merged_record[j], flow_tuples[j]
            init_is_a[s] = record.initiator_ip == kt[0] and record.initiator_port == kt[1]
        seg_sizes = np.diff(seg_start_pos, append=n_kept)
        fwd = g_src_a == np.repeat(init_is_a, seg_sizes)

        # Inter-arrival times: every non-first packet of a segment, plus the
        # bridge from a merged record's last packet to the segment's first
        # (``gap`` already holds t0 - last_packet_time from the merge pass).
        iat_valid = ~seg_break
        iat_valid[seg_start_pos[seg_merge]] = True

        # ---- array reductions into per-segment aggregates -----------------
        # Segments are contiguous runs of the grouped arrays, so one
        # ``reduceat`` per reduction covers them all.  Integer columns
        # (counts, byte and squared-length sums) are exact in any order; the
        # inter-arrival float sums keep ``bincount``'s sequential order.
        fwd_len = np.where(fwd, g_len, 0)
        bwd_len = g_len - fwd_len
        counts = np.empty((n_kept, 11), dtype=np.int64)
        counts[:, 0] = fwd
        counts[:, 1] = fwd_len
        counts[:, 2] = bwd_len
        counts[:, 3] = fwd_len * fwd_len
        counts[:, 4] = bwd_len * bwd_len
        counts[:, 5:] = (cols.flags[order][:, None] & _FLAG_BITS) != 0
        counts = np.add.reduceat(counts, seg_start_pos, axis=0)
        extrema = np.empty((n_kept, 2), dtype=np.float64)
        extrema[:, 0] = np.where(fwd, g_len, np.inf)
        extrema[:, 1] = np.where(iat_valid, gap, np.inf)
        lows = np.minimum.reduceat(extrema, seg_start_pos, axis=0)
        extrema[:, 0] = np.where(fwd, g_len, -np.inf)
        extrema[:, 1] = np.where(iat_valid, gap, -np.inf)
        highs = np.maximum.reduceat(extrema, seg_start_pos, axis=0)
        iat_seg = seg[iat_valid]
        iat_vals = gap[iat_valid]
        iat_count = np.bincount(iat_seg, minlength=n_seg)

        # Distinct destination ports of forward packets, per segment (ports
        # fit in 16 bits, so (segment, port) pairs pack into one integer).
        port_pairs = np.sort(seg[fwd] * (1 << 17) + cols.dports[order][fwd])
        port_pairs = port_pairs[_run_starts(port_pairs)]
        port_sets: List[Set[int]] = [set() for _ in range(n_seg)]
        for s, port in zip((port_pairs >> 17).tolist(), (port_pairs & ((1 << 17) - 1)).tolist()):
            port_sets[s].add(port)

        # First attack label per segment (if any).
        seg_label = ["benign"] * n_seg
        attack = g_label != "benign"
        if attack.any():
            first = np.minimum.reduceat(np.where(attack, np.arange(n_kept), n_kept), seg_start_pos)
            has_attack = np.flatnonzero(first < n_kept)
            for s, label in zip(has_attack.tolist(), g_label[first[has_attack]].tolist()):
                seg_label[s] = label

        # ---- build / update flow records ----------------------------------
        # Every column becomes Python scalars once (``tolist``), in
        # ``FlowRecord`` declaration order from ``start_time`` on: segments
        # are built positionally (keyword matching would cost more than the
        # rest of the record), and a merged one is absorbed by its record.
        rows = zip(
            seg_t0.tolist(),
            seg_t1.tolist(),
            seg_label,
            counts[:, 0].tolist(),
            (seg_sizes - counts[:, 0]).tolist(),
            counts[:, 1].tolist(),
            counts[:, 2].tolist(),
            counts[:, 3].astype(np.float64).tolist(),
            lows[:, 0].tolist(),
            highs[:, 0].tolist(),
            counts[:, 4].astype(np.float64).tolist(),
            iat_count.tolist(),
            np.bincount(iat_seg, weights=iat_vals, minlength=n_seg).tolist(),
            np.bincount(iat_seg, weights=iat_vals * iat_vals, minlength=n_seg).tolist(),
            lows[:, 1].tolist(),
            highs[:, 1].tolist(),
            seg_t1.tolist(),
            *counts[:, 5:].T.tolist(),
        )
        slot_list = seg_slot.tolist()
        slot_last_seg = dict(zip(slot_list, range(n_seg)))
        for s, (j, merge, is_a, ports, row) in enumerate(
            zip(slot_list, seg_merge.tolist(), init_is_a.tolist(), port_sets, rows)
        ):
            if merge:
                record = merged_record[j]
                record._absorb(
                    FlowRecord(record.key, record.initiator_ip, record.initiator_port, *row, ports)
                )
            else:
                kt = flow_tuples[j]
                record = FlowRecord(
                    FlowKey(*kt), kt[0] if is_a else kt[2], kt[1] if is_a else kt[3], *row, ports
                )
            if slot_last_seg[j] == s:
                self._active[flow_tuples[j]] = record
            else:
                # A later packet of the same key superseded this segment.
                completed.append(record)

        # ---- batch-end expiry (the last packet's arrival time) ------------
        completed.extend(self._expire(float(ts[-1])))
        return completed
