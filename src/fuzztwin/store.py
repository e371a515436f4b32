"""Durable campaign store: states, actions, probabilities, connection traces.

Single-file append-only log. File layout:

    magic   b"FZTW"
    version u8 (currently 1)
    records, each:
        u32 little-endian payload length
        u8  record kind (1=state, 2=action, 3=probability, 4=trace)
        payload  UTF-8 JSON
        u32 little-endian CRC32 of kind byte + payload

Traces are append-only and keyed by a content hash, so re-recording the same
trace is a no-op. Probability rows are the only mutable kind: on reload the
last write wins. A truncated final record (torn write at the moment of a
crash) is discarded on reload; corruption anywhere earlier raises
CorruptRecord. ``compact()`` snapshots the live contents into a fresh log.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import threading
from dataclasses import asdict, dataclass

from .analyzer import TransitionGraph, build_graph

MAGIC = b"FZTW"
VERSION = 1

_KIND_STATE = 1
_KIND_ACTION = 2
_KIND_PROBABILITY = 3
_KIND_TRACE = 4


class StoreError(Exception):
    pass


class CorruptRecord(StoreError):
    """Reload hit a record whose checksum or framing is invalid."""


class StorageFull(StoreError):
    """The backing device rejected an append."""


class UnsupportedFormat(StoreError):
    pass


@dataclass(frozen=True)
class StateRow:
    state_id: str
    channel: str
    first_bytes: str  # hex of the 3-byte PDU prefix ("" for synthetic states)
    description: str = ""


@dataclass(frozen=True)
class ActionRow:
    action_id: int
    state_id: str
    raw_bytes: str  # hex
    channel: str
    physical_channel: str
    message_time: int  # virtual nanoseconds


@dataclass(frozen=True)
class ProbabilityRow:
    state_id_from: str
    state_id_to: str
    probability: float


@dataclass(frozen=True)
class FuzzActionRecord:
    """Serialisable description of the mutation applied to a connection."""

    kind: str  # "command_replace" | "bit_fuzz"
    layer: str  # "rrc" | "mac"
    phase: str | None = None  # "before_encryption" | "after_encryption"
    source_state: str | None = None
    replacement_state: str | None = None
    msg_type: str | None = None
    field_name: str | None = None
    value: int | None = None


@dataclass(frozen=True)
class ConnectionTrace:
    states: tuple = ()  # tuple of (state_id, timestamp_ns)
    outcome: str = "Failed"  # "Success" | "Failed"
    fuzz_action: FuzzActionRecord | None = None
    fuzz_time: int | None = None
    outcome_time: int = 0
    trace_id: str = ""

    def content_hash(self) -> str:
        payload = {
            "states": [[s, int(t)] for s, t in self.states],
            "outcome": self.outcome,
            "fuzz_action": asdict(self.fuzz_action) if self.fuzz_action else None,
            "fuzz_time": self.fuzz_time,
            "outcome_time": self.outcome_time,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def state_sequence(self) -> list[str]:
        return [s for s, _ in self.states]

    def transitions(self) -> list[tuple[str, str]]:
        seq = self.state_sequence()
        return list(zip(seq, seq[1:]))


def _crc32(data: bytes) -> int:
    import zlib

    return zlib.crc32(data) & 0xFFFFFFFF


def _frame_record(kind: int, payload: dict) -> bytes:
    """One log record: length, kind, compact sorted JSON, CRC32 of kind + JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    crc = _crc32(bytes([kind]) + blob)
    return len(blob).to_bytes(4, "little") + bytes([kind]) + blob + crc.to_bytes(4, "little")


def _trace_to_dict(trace: ConnectionTrace) -> dict:
    d = {
        "trace_id": trace.trace_id,
        "states": [[s, int(t)] for s, t in trace.states],
        "outcome": trace.outcome,
        "fuzz_action": asdict(trace.fuzz_action) if trace.fuzz_action else None,
        "fuzz_time": trace.fuzz_time,
        "outcome_time": trace.outcome_time,
    }
    return d


def _trace_from_dict(d: dict) -> ConnectionTrace:
    action = FuzzActionRecord(**d["fuzz_action"]) if d.get("fuzz_action") else None
    return ConnectionTrace(
        states=tuple((s, int(t)) for s, t in d["states"]),
        outcome=d["outcome"],
        fuzz_action=action,
        fuzz_time=d.get("fuzz_time"),
        outcome_time=d.get("outcome_time", 0),
        trace_id=d["trace_id"],
    )


def _probability_from_dict(d: dict) -> ProbabilityRow:
    # stores written before the field was removed carry "completion_rate": null
    return ProbabilityRow(d["state_id_from"], d["state_id_to"], d["probability"])


class CampaignStore:
    """Single-writer, multi-reader store over one log file.

    Pass ``path=None`` for an in-memory store (used by short-lived campaigns
    and tests); everything else behaves identically minus durability.
    """

    def __init__(self, path=None, *, durable: bool = True):
        self.path = os.fspath(path) if path is not None else None
        self.durable = durable
        self._lock = threading.Lock()
        self._fh = None
        self.states: dict[str, StateRow] = {}
        self.actions: list[ActionRow] = []
        self.probabilities: dict[tuple[str, str], ProbabilityRow] = {}
        self._traces: dict[str, ConnectionTrace] = {}
        self._trace_order: list[str] = []
        if self.path is not None:
            self._open_file()

    # ------------------------------------------------------------------
    # file handling
    # ------------------------------------------------------------------

    def _open_file(self):
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if exists:
            self._load()
            self._fh = open(self.path, "ab")
        else:
            self._fh = open(self.path, "wb")
            self._fh.write(MAGIC + bytes([VERSION]))
            self._fh.flush()
            if self.durable:
                os.fsync(self._fh.fileno())

    def _load(self):
        with open(self.path, "rb") as fh:
            head = fh.read(5)
            if head[:4] != MAGIC:
                raise CorruptRecord("bad magic bytes")
            if head[4] != VERSION:
                raise CorruptRecord(f"unsupported store version {head[4]}")
            offset = 5
            data = fh.read()
        pos = 0
        total = len(data)
        good_end = offset
        while pos < total:
            if pos + 5 > total:
                break  # torn header at tail
            length = int.from_bytes(data[pos : pos + 4], "little")
            kind = data[pos + 5 - 1]
            end = pos + 5 + length + 4
            if end > total:
                break  # torn payload at tail
            payload = data[pos + 5 : pos + 5 + length]
            stated_crc = int.from_bytes(data[end - 4 : end], "little")
            if _crc32(bytes([kind]) + payload) != stated_crc:
                # mid-file corruption is fatal; only a torn tail is tolerated
                if end < total:
                    raise CorruptRecord(f"checksum mismatch at offset {offset + pos}")
                break
            self._apply(kind, json.loads(payload.decode()))
            pos = end
            good_end = offset + pos
        if good_end < offset + total:
            # drop the torn tail so future appends start on a record boundary
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)

    def _apply(self, kind: int, payload: dict):
        if kind == _KIND_STATE:
            row = StateRow(**payload)
            self.states[row.state_id] = row
        elif kind == _KIND_ACTION:
            self.actions.append(ActionRow(**payload))
        elif kind == _KIND_PROBABILITY:
            row = _probability_from_dict(payload)
            self.probabilities[(row.state_id_from, row.state_id_to)] = row
        elif kind == _KIND_TRACE:
            trace = _trace_from_dict(payload)
            if trace.trace_id not in self._traces:
                self._traces[trace.trace_id] = trace
                self._trace_order.append(trace.trace_id)
        else:
            raise CorruptRecord(f"unknown record kind {kind}")

    def _append(self, kind: int, payload: dict):
        if self._fh is None:
            return
        try:
            self._fh.write(_frame_record(kind, payload))
            self._fh.flush()
            if self.durable:
                os.fsync(self._fh.fileno())
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise StorageFull(str(exc)) from exc
            raise

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def record_state(self, row: StateRow) -> None:
        with self._lock:
            if self.states.get(row.state_id) == row:
                return
            self.states[row.state_id] = row
            self._append(_KIND_STATE, asdict(row))

    def record_action(self, row: ActionRow) -> None:
        with self._lock:
            self.actions.append(row)
            self._append(_KIND_ACTION, asdict(row))

    def record_probability(self, row: ProbabilityRow) -> None:
        with self._lock:
            self.probabilities[(row.state_id_from, row.state_id_to)] = row
            self._append(_KIND_PROBABILITY, asdict(row))

    def record_trace(self, trace: ConnectionTrace) -> str:
        """Store a trace under its content hash; duplicates are no-ops."""
        trace_id = trace.content_hash()
        stored = ConnectionTrace(
            states=trace.states,
            outcome=trace.outcome,
            fuzz_action=trace.fuzz_action,
            fuzz_time=trace.fuzz_time,
            outcome_time=trace.outcome_time,
            trace_id=trace_id,
        )
        with self._lock:
            if trace_id in self._traces:
                return trace_id
            self._traces[trace_id] = stored
            self._trace_order.append(trace_id)
            self._append(_KIND_TRACE, _trace_to_dict(stored))
        return trace_id

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def traces(self, outcome: str | None = None) -> list[ConnectionTrace]:
        with self._lock:
            out = [self._traces[tid] for tid in self._trace_order]
        if outcome is not None:
            out = [t for t in out if t.outcome == outcome]
        return out

    def get_trace(self, trace_id: str) -> ConnectionTrace | None:
        with self._lock:
            return self._traces.get(trace_id)

    def __len__(self) -> int:
        return len(self._trace_order)

    # ------------------------------------------------------------------
    # export / import
    # ------------------------------------------------------------------

    def export(self, fmt: str) -> bytes:
        if fmt == "json":
            return self._export_json()
        if fmt == "csv":
            return self._export_csv()
        if fmt == "dot":
            return self._export_dot()
        raise UnsupportedFormat(fmt)

    def _export_json(self) -> bytes:
        doc = {
            "states": [asdict(r) for r in self.states.values()],
            "actions": [asdict(r) for r in self.actions],
            "probabilities": [asdict(r) for r in self.probabilities.values()],
            "traces": [_trace_to_dict(self._traces[t]) for t in self._trace_order],
        }
        return json.dumps(doc, sort_keys=True, indent=1).encode()

    def import_json(self, blob: bytes) -> None:
        doc = json.loads(blob.decode())
        for r in doc.get("states", []):
            self.record_state(StateRow(**r))
        for r in doc.get("actions", []):
            self.record_action(ActionRow(**r))
        for r in doc.get("probabilities", []):
            self.record_probability(_probability_from_dict(r))
        for r in doc.get("traces", []):
            trace = _trace_from_dict(r)
            self.record_trace(trace)

    def _export_csv(self) -> bytes:
        """Flat trace table: one row per visited state.

        Columns: trace_id,seq_index,state_id,timestamp_ns,outcome,fuzzed,
        fuzz_time,outcome_time
        """
        out = io.StringIO()
        out.write("trace_id,seq_index,state_id,timestamp_ns,outcome,fuzzed,fuzz_time,outcome_time\n")
        for tid in self._trace_order:
            t = self._traces[tid]
            fuzzed = "1" if t.fuzz_action else "0"
            ftime = "" if t.fuzz_time is None else str(t.fuzz_time)
            for i, (sid, ts) in enumerate(t.states):
                out.write(
                    f"{t.trace_id},{i},{sid},{ts},{t.outcome},{fuzzed},{ftime},{t.outcome_time}\n"
                )
        return out.getvalue().encode()

    def _export_dot(self) -> bytes:
        """Transition graph with per-outcome edge weights, as counted by
        ``analyzer.build_graph``; an empty store gives an empty digraph."""
        traces = self.traces()
        return (build_graph(traces) if traces else TransitionGraph()).to_dot()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def compact(self) -> None:
        """Snapshot live contents into a fresh log, dropping superseded rows."""
        if self.path is None:
            return
        with self._lock:
            tmp = self.path + ".compact"
            with open(tmp, "wb") as fh:
                fh.write(MAGIC + bytes([VERSION]))
                for row in self.states.values():
                    fh.write(_frame_record(_KIND_STATE, asdict(row)))
                for row in self.actions:
                    fh.write(_frame_record(_KIND_ACTION, asdict(row)))
                for row in self.probabilities.values():
                    fh.write(_frame_record(_KIND_PROBABILITY, asdict(row)))
                for tid in self._trace_order:
                    fh.write(_frame_record(_KIND_TRACE, _trace_to_dict(self._traces[tid])))
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            # the rename survives a crash only once its directory is synced
            dir_fd = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            self._fh = open(self.path, "ab")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                if self.durable:
                    os.fsync(self._fh.fileno())
                self._fh.close()
                self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
