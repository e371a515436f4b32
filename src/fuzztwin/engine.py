"""Fuzzing strategies: exhaustive command replacement, probability-scheduled
command replacement, and bit-level identifier fuzzing.

Command-level campaigns replace one recorded command per connection attempt
with another command from the same physical channel. The probability-guided
strategy keeps an n-by-n priority matrix over command pairs: a connection
failure multiplies the fuzzed row and column by (1 + alpha), a success decays
them by (1 - alpha * ratio), everything clamped to [p_min, 1]. Rows are drawn
proportionally to their remaining untested mass and the replacement within
the row by its entry weight, without replacement, so a campaign terminates in
at most n*(n-1) attempts.

Every strategy is a source of cases plus an ``attempt`` that runs one case;
``run_campaign`` is the one loop that runs them and records findings.
Campaigns run against either the twin (HandshakeTarget, on the in-process
virtual-time transport) or a simulated alphabet of commands with the same
outcome rule (SimulatedTarget), which makes scaled scheduling experiments
cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .store import CampaignStore, ConnectionTrace, FuzzActionRecord, ProbabilityRow
from .twin import (
    TwinConfig,
    VulnerabilityProfile,
    derive_state_id,
    identity_interceptor,
    run_connection,
    state_id_for,
)
from .relay import ForwardDecision
from .wire import (
    FIELD_OFFSETS,
    Frame,
    Message,
    MsgType,
    TYPE_CHANNEL,
    UPLINK_CHANNELS,
    compute_checksum,
    establishment_cause_effect,
)

SUCCESS = "Success"
FAILED = "Failed"

class EngineError(Exception):
    pass


class EmptyPool(EngineError):
    """Command-level fuzzing needs at least one prior observation run."""


class RowExhausted(EngineError):
    """No untested replacement remains for this command."""


class UnknownField(EngineError):
    pass


# ---------------------------------------------------------------------------
# fuzz actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzAction:
    kind: str  # "command_replace" | "bit_fuzz"
    layer: str = "rrc"  # "rrc" re-encodes with a fresh checksum, "mac" writes raw
    phase: str | None = None  # bit_fuzz only
    source_state: str | None = None
    replacement_state: str | None = None
    msg_type: MsgType | None = None
    field_name: str | None = None
    value: int | None = None

    def to_record(self) -> FuzzActionRecord:
        return FuzzActionRecord(
            kind=self.kind,
            layer=self.layer,
            phase=self.phase,
            source_state=self.source_state,
            replacement_state=self.replacement_state,
            msg_type=self.msg_type.name if self.msg_type else None,
            field_name=self.field_name,
            value=self.value,
        )


def command_replace(a: str, b: str, layer: str = "rrc") -> FuzzAction:
    return FuzzAction(kind="command_replace", layer=layer, source_state=a, replacement_state=b)


# ---------------------------------------------------------------------------
# candidate pool (observed commands)
# ---------------------------------------------------------------------------


class CandidatePool:
    """Recorded commands grouped by physical channel."""

    def __init__(self):
        self.by_channel: dict[str, list[tuple[str, Frame]]] = {}
        self.frames: dict[str, Frame] = {}

    def observe(self, frame: Frame) -> None:
        sid = derive_state_id(frame)
        if sid in self.frames:
            return
        channel = sid.split(":", 1)[0]
        self.frames[sid] = frame
        self.by_channel.setdefault(channel, []).append((sid, frame))

    @property
    def size(self) -> int:
        return len(self.frames)

    def commands_by_channel(self) -> dict[str, list[str]]:
        return {ch: [sid for sid, _ in entries] for ch, entries in self.by_channel.items()}

    def frame(self, sid: str) -> Frame:
        return self.frames[sid]

    def replacement_pairs(self, channels=None) -> list[tuple[str, str]]:
        """All ordered same-channel pairs (a, b), a != b, in observation order."""
        pairs = []
        for channel, entries in self.by_channel.items():
            if channels is not None and channel not in channels:
                continue
            sids = [sid for sid, _ in entries]
            pairs.extend((a, b) for a in sids for b in sids if a != b)
        return pairs


# ---------------------------------------------------------------------------
# probability matrix (Algorithm 1 state)
# ---------------------------------------------------------------------------


@dataclass
class ProbabilityMatrix:
    states: list[str]
    p: np.ndarray
    tested: np.ndarray
    eligible: np.ndarray
    p_min: float = 0.01
    _index: dict = field(default_factory=dict, repr=False)

    @classmethod
    def uniform(cls, states, channel_of=None, p0: float = 0.5, p_min: float = 0.01):
        """Constant prior over eligible pairs: same channel, off-diagonal."""
        states = list(states)
        n = len(states)
        p = np.full((n, n), float(p0))
        eligible = np.ones((n, n), dtype=bool)
        np.fill_diagonal(eligible, False)
        if channel_of is not None:
            chans = [channel_of[s] for s in states]
            for i in range(n):
                for j in range(n):
                    if chans[i] != chans[j]:
                        eligible[i, j] = False
        return cls(
            states=states,
            p=p,
            tested=np.zeros((n, n), dtype=bool),
            eligible=eligible,
            p_min=p_min,
            _index={s: i for i, s in enumerate(states)},
        )

    def __post_init__(self):
        if not self._index:
            self._index = {s: i for i, s in enumerate(self.states)}

    def idx(self, sid: str) -> int:
        return self._index[sid]

    def untested_mask(self) -> np.ndarray:
        return self.eligible & ~self.tested

    def untested_pairs(self) -> list[tuple[str, str]]:
        rows, cols = np.nonzero(self.untested_mask())
        return [(self.states[i], self.states[j]) for i, j in zip(rows, cols)]

    def has_untested(self) -> bool:
        return bool(self.untested_mask().any())

    def mark_tested(self, a: str, b: str) -> None:
        self.tested[self.idx(a), self.idx(b)] = True

    def sample_row(self, rng: np.random.Generator) -> str:
        """Draw a source command proportionally to its untested priority mass.

        Together with the in-row draw this makes case selection proportional
        to the priority of the untested pair itself, so boosted rows and
        boosted replacement commands both pull attention.
        """
        mass = (self.p * self.untested_mask()).sum(axis=1)
        total = mass.sum()
        if total <= 0:
            raise RowExhausted("no untested pair left in any row")
        return self.states[weighted_index(mass / total, rng)]

    def probability_rows(self) -> list[ProbabilityRow]:
        rows = []
        for i, a in enumerate(self.states):
            for j, b in enumerate(self.states):
                if self.eligible[i, j]:
                    rows.append(ProbabilityRow(a, b, float(self.p[i, j])))
        return rows


def weighted_index(w: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probability ``w`` (non-negative, summing to about 1).

    This is ``rng.choice(len(w), p=w)`` without its input validation:
    numpy draws by the same inverse CDF from one ``rng.random()``, so the
    generator's stream and the returned index are the same.
    """
    cdf = w.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def syal_select(matrix: ProbabilityMatrix, a: str, rng: np.random.Generator) -> str:
    """Weighted draw of a replacement for command ``a`` among untested pairs."""
    i = matrix.idx(a)
    weights = matrix.p[i] * (matrix.eligible[i] & ~matrix.tested[i])
    total = weights.sum()
    if total <= 0:
        raise RowExhausted(f"row {a} has no untested replacement")
    return matrix.states[weighted_index(weights / total, rng)]


def syal_update(
    matrix: ProbabilityMatrix,
    a: str,
    b: str,
    outcome: str,
    alpha: float,
    ratio: float,
    scope: str = "row_column",
) -> ProbabilityMatrix:
    """Multiplicative priority update after one fuzz case (a -> b).

    Failure boosts by (1 + alpha), success decays by (1 - alpha * ratio).
    scope "row_column" touches every entry of row a and column b exactly
    once; "entry" touches only (a, b). Results clamp to [p_min, 1].
    """
    factor = (1.0 + alpha) if outcome == FAILED else (1.0 - alpha * ratio)
    i, j = matrix.idx(a), matrix.idx(b)
    p, p_min = matrix.p, matrix.p_min
    if scope == "entry":
        p[i, j] = min(max(p[i, j] * factor, p_min), 1.0)
    elif scope == "row_column":
        _scale_clamped(p[i], factor, p_min)  # basic slices are views
        entry = p[i, j]  # scaled with the row; the column must not scale it again
        _scale_clamped(p[:, j], factor, p_min)
        p[i, j] = entry
    else:
        raise ValueError(f"unknown update scope {scope!r}")
    return matrix


def _scale_clamped(line: np.ndarray, factor: float, p_min: float) -> None:
    """``line[:] = np.clip(line * factor, p_min, 1.0)`` without temporaries."""
    np.multiply(line, factor, out=line)
    np.maximum(line, p_min, out=line)
    np.minimum(line, 1.0, out=line)


# ---------------------------------------------------------------------------
# campaign targets
# ---------------------------------------------------------------------------


class SimulatedTarget:
    """Outcome oracle over an abstract command alphabet.

    Encodes the twin's observable rule for command replacement: a pair in
    the vulnerability profile fails the connection, anything else is ignored
    by the receiver and recovered by retransmission. Traces are synthesised
    to the same shape the twin records.

    A trace is a pure function of ``(a, b, layer)`` and the alphabet,
    profile and tick fixed at construction, so each is built once and the
    same frozen ``ConnectionTrace`` is returned on every repeat. Do not
    reassign ``commands``, ``profile``, ``channel`` or ``tick_ns`` after
    construction; build a new target instead.
    """

    def __init__(self, commands, profile: VulnerabilityProfile, channel: str = "PDSCH",
                 tick_ns: int = 10_000_000):
        self.commands = list(commands)
        self.profile = profile
        self.channel = channel
        self.tick_ns = tick_ns
        self._index = {c: i for i, c in enumerate(self.commands)}
        # the unfuzzed run's states, and the same shifted one tick later for
        # the commands that follow an injected one
        self._states = tuple((c, (i + 1) * tick_ns) for i, c in enumerate(self.commands))
        self._shifted = tuple((c, (i + 2) * tick_ns) for i, c in enumerate(self.commands))
        self._traces: dict[tuple[str, str, str], ConnectionTrace] = {}

    @classmethod
    def alphabet(cls, n: int, profile: VulnerabilityProfile, prefix: str = "cmd", **kw):
        return cls([f"{prefix}{i:02d}" for i in range(n)], profile, **kw)

    def commands_by_channel(self) -> dict[str, list[str]]:
        return {self.channel: list(self.commands)}

    def attempt_command_replace(self, a: str, b: str, layer: str = "rrc") -> ConnectionTrace:
        key = (a, b, layer)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = self._build_trace(a, b, layer)
        return trace

    def _build_trace(self, a: str, b: str, layer: str) -> ConnectionTrace:
        """The injected ``b`` takes ``a``'s slot; unless the pair fails the
        connection, ``a`` is retransmitted next and the run goes on."""
        pos = self._index[a]
        tick = self.tick_ns
        failed = self.profile.forces_failure(a, b)
        states = self._states[:pos] + ((b, (pos + 1) * tick),)
        if not failed:
            states += ((a, (pos + 2) * tick),) + self._shifted[pos + 1 :]
        return ConnectionTrace(
            states=states,
            outcome=FAILED if failed else SUCCESS,
            fuzz_action=command_replace(a, b, layer).to_record(),
            fuzz_time=(pos + 1) * tick,
            outcome_time=(len(states) + 1) * tick,
        )


class _OneShotReplace:
    def __init__(self, target_sid: str, raw: bytes):
        self.target_sid = target_sid
        self.raw = raw
        self.fuzzed = False

    def __call__(self, frame: Frame) -> ForwardDecision:
        if not self.fuzzed and derive_state_id(frame) == self.target_sid:
            self.fuzzed = True
            return ForwardDecision.replace(Frame(self.raw, frame.direction))
        return ForwardDecision.pass_()


class _OneShotBlindWrite:
    def __init__(self, target_sid: str, offset: int, byte_value: int):
        self.target_sid = target_sid
        self.offset = offset
        self.byte_value = byte_value
        self.fuzzed = False

    def __call__(self, frame: Frame) -> ForwardDecision:
        if not self.fuzzed and derive_state_id(frame) == self.target_sid:
            self.fuzzed = True
            mask = frame.raw[self.offset] ^ self.byte_value
            if mask == 0:
                return ForwardDecision.pass_()  # value already on the wire
            return ForwardDecision.mutate_bits((self.offset, mask))
        return ForwardDecision.pass_()


def _blind_write(msg_type: MsgType, field_name: str, value: int) -> tuple[int, int]:
    """(pdu offset, whole byte) a MAC-layer attacker writes for this value.

    Byte-granular on purpose: bits sharing the byte (the setup request's
    spare bit) get zeroed, exactly what a blind on-wire write does.
    """
    offsets = FIELD_OFFSETS.get(msg_type)
    if offsets is None or field_name not in offsets:
        raise UnknownField(f"{msg_type.name} has no fuzzable field {field_name!r}")
    if field_name == "establishment_cause":
        return offsets[field_name], (value << 1) & 0xFF
    return offsets[field_name], value & 0xFF


class HandshakeTarget:
    """Twin plus MITM relay as a campaign target, run in process on a
    virtual clock (``twin.run_connection``)."""

    def __init__(self, config: TwinConfig, profile: VulnerabilityProfile | None = None,
                 store: CampaignStore | None = None):
        self.config = config
        self.profile = profile or VulnerabilityProfile.empty()
        self.store = store
        self.pool = CandidatePool()

    def bootstrap(self) -> CandidatePool:
        """One clean observed connection to seed the candidate pool."""

        def capture(frame: Frame) -> ForwardDecision:
            self.pool.observe(frame)
            return ForwardDecision.pass_()

        result = run_connection(self.config, self.profile, capture, store=self.store)
        if result.trace.outcome != SUCCESS:
            raise EngineError("bootstrap observation run failed")
        return self.pool

    def commands_by_channel(self) -> dict[str, list[str]]:
        if not self.pool.size:
            raise EmptyPool("bootstrap the target before fuzzing")
        return self.pool.commands_by_channel()

    def baseline_service(self):
        return establishment_cause_effect(self.config.params.establishment_cause)

    def attempt_command_replace(self, a: str, b: str, layer: str = "rrc") -> ConnectionTrace:
        raw = self.pool.frame(b).raw
        if layer == "rrc":
            # re-encode under this connection: stamp the current RNTI and
            # regenerate the checksum, as a function-level injection would
            body = bytearray(raw[:-2])
            body[2] = (self.config.rnti >> 8) & 0xFF
            body[3] = self.config.rnti & 0xFF
            raw = bytes(body) + compute_checksum(bytes(body), self.config.rnti).to_bytes(2, "big")
        action = command_replace(a, b, layer)
        result = run_connection(
            self.config,
            self.profile,
            _OneShotReplace(a, raw),
            store=self.store,
            fuzz_action=action.to_record(),
        )
        return result.trace

    def attempt_bit_fuzz(self, action: FuzzAction):
        """Returns (trace, gnb service type, failure reason)."""
        record = action.to_record()
        if action.phase == "before_encryption":
            is_uplink = TYPE_CHANNEL[action.msg_type] in UPLINK_CHANNELS

            def hook(msg: Message) -> Message:
                if msg.msg_type is action.msg_type:
                    return msg.with_fields(**{action.field_name: action.value})
                return msg

            result = run_connection(
                self.config,
                self.profile,
                identity_interceptor,
                store=self.store,
                fuzz_action=record,
                ue_hook=hook if is_uplink else None,
                gnb_hook=None if is_uplink else hook,
            )
        else:
            offset, byte_value = _blind_write(action.msg_type, action.field_name, action.value)
            interceptor = _OneShotBlindWrite(
                state_id_for(action.msg_type, self.config.rnti), offset, byte_value
            )
            result = run_connection(
                self.config, self.profile, interceptor, store=self.store, fuzz_action=record
            )
        reason = result.ue_state.failure_reason or result.gnb_state.failure_reason
        return result.trace, result.gnb_state.service_type, reason


# ---------------------------------------------------------------------------
# campaign results and the case driver
# ---------------------------------------------------------------------------


@dataclass
class CampaignResult:
    strategy: str
    cases_run: int
    vulnerabilities_found: list  # (FuzzAction, trace_id)
    found_curve: list  # (case_index, cumulative found)
    seed: int
    case_log: list = field(default_factory=list)  # (FuzzAction, outcome, label)

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "cases_run": self.cases_run,
            "seed": self.seed,
            "vulnerabilities_found": [
                {"action": action.to_record().__dict__, "trace_id": tid}
                for action, tid in self.vulnerabilities_found
            ],
            "found_curve": [list(point) for point in self.found_curve],
            "case_log": [
                {"action": action.to_record().__dict__, "outcome": outcome, "label": label}
                for action, outcome, label in self.case_log
            ],
        }


def run_campaign(strategy: str, seed: int, cases, attempt,
                 stop_after_found: int | None = None) -> CampaignResult:
    """Run cases one connection each and record what they found.

    ``cases`` is consumed lazily, one item per case, so a source may choose
    its next case from the outcomes learned so far. ``attempt(case)`` runs
    one connection and returns ``(action, trace, label)``; any label other
    than ``"none"`` is a finding. The campaign ends when ``cases`` runs out
    or, if ``stop_after_found`` is set, once that many findings are on
    record (0 runs no case).
    """
    result = CampaignResult(strategy, 0, [], [], seed)
    if stop_after_found is not None and stop_after_found <= 0:
        return result
    vulns, curve, log = result.vulnerabilities_found, result.found_curve, result.case_log
    for case in cases:
        action, trace, label = attempt(case)
        if label != "none":
            vulns.append((action, trace.trace_id or trace.content_hash()))
        log.append((action, trace.outcome, label))
        curve.append((len(log), len(vulns)))
        if len(vulns) == stop_after_found:  # never true for None
            break
    result.cases_run = len(log)
    return result


def _replace_attempt(target):
    """``attempt`` for a command-replacement pair: a failed connection is a finding."""

    def attempt(pair):
        a, b = pair
        trace = target.attempt_command_replace(a, b)
        return command_replace(a, b), trace, "failure" if trace.outcome == FAILED else "none"

    return attempt


# ---------------------------------------------------------------------------
# LAL: exhaustive command replacement
# ---------------------------------------------------------------------------


def lal_campaign(pool: CandidatePool, budget: int, seed: int, target, *,
                 channels=None) -> CampaignResult:
    """Same-channel replacements in a seeded shuffle, one per connection."""
    if pool.size == 0:
        raise EmptyPool("no commands observed yet")
    pairs = pool.replacement_pairs(channels)
    random.Random(seed).shuffle(pairs)
    return run_campaign("lal", seed, pairs[:budget], _replace_attempt(target))


# ---------------------------------------------------------------------------
# SyAL: probability-scheduled replacement, and the uniform-random baseline
# ---------------------------------------------------------------------------


def _campaign_matrix(target, channels, p0, p_min):
    by_channel = target.commands_by_channel()
    channel_of, states = {}, []
    for channel, commands in sorted(by_channel.items()):
        if channels is not None and channel not in channels:
            continue
        for sid in commands:
            states.append(sid)
            channel_of[sid] = channel
    if not states:
        raise EmptyPool("no commands on the targeted channels")
    return ProbabilityMatrix.uniform(states, channel_of, p0=p0, p_min=p_min)


def syal_campaign(
    target,
    *,
    alpha: float = 0.5,
    ratio: float = 0.1,
    p_min: float = 0.01,
    p0: float = 0.5,
    update_scope: str = "row_column",
    seed: int = 0,
    channels=None,
    stop_after_found: int | None = None,
    prior_pairs=(),
    store: CampaignStore | None = None,
):
    """Algorithm-style probability campaign; returns (result, matrix).

    One replacement per connection attempt: the source row is drawn by its
    untested priority mass, the replacement by its entry weight; the matrix
    is updated after each outcome. Stops when every eligible pair is tested
    or, in evaluation mode, once ``stop_after_found`` vulnerabilities are on
    record. ``prior_pairs`` seeds known vulnerabilities: each gets one
    failure update up front and is excluded from testing and counting.
    """
    matrix = _campaign_matrix(target, channels, p0, p_min)
    for a, b in prior_pairs:
        syal_update(matrix, a, b, FAILED, alpha, ratio, scope=update_scope)
        matrix.mark_tested(a, b)
    rng = np.random.default_rng(seed)
    untested = int(matrix.untested_mask().sum())  # each case tests one new pair

    def draws():
        for _ in range(untested):
            a = matrix.sample_row(rng)
            yield a, syal_select(matrix, a, rng)

    def attempt(pair):
        a, b = pair
        trace = target.attempt_command_replace(a, b)
        matrix.mark_tested(a, b)
        syal_update(matrix, a, b, trace.outcome, alpha, ratio, scope=update_scope)
        return command_replace(a, b), trace, "failure" if trace.outcome == FAILED else "none"

    result = run_campaign("syal", seed, draws(), attempt, stop_after_found)
    if store is not None:
        for row in matrix.probability_rows():
            store.record_probability(row)
    return result, matrix


def random_campaign(
    target,
    *,
    seed: int = 0,
    channels=None,
    stop_after_found: int | None = None,
) -> CampaignResult:
    """Uniform-random baseline: a random permutation of all eligible pairs."""
    pairs = _campaign_matrix(target, channels, p0=0.5, p_min=0.01).untested_pairs()
    order = np.random.default_rng(seed).permutation(len(pairs))
    return run_campaign("random", seed, (pairs[int(k)] for k in order),
                        _replace_attempt(target), stop_after_found)


# ---------------------------------------------------------------------------
# SoAL: bit-level identifier fuzzing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    name: str
    values: tuple


# Canonical identifier domains for bit-level campaigns: three UE identities,
# the full 4-bit establishment cause, both rejectable bearer ids, and the
# scheduling index sampled at every interesting range edge up to its maximum.
# Before-encryption, this makes a 33-case campaign.
SR_CONFIG_SAMPLES = (4, 5, 14, 15, 34, 35, 74, 75, 154, 155, 156, 157)

DEFAULT_FIELD_DOMAINS: dict[MsgType, tuple[FieldSpec, ...]] = {
    MsgType.RRC_SETUP_REQUEST: (
        FieldSpec("ue_id", (0b00, 0b01, 0b10)),
        FieldSpec("establishment_cause", tuple(range(16))),
    ),
    MsgType.RRC_RECONFIGURATION: (FieldSpec("sr_config_index", SR_CONFIG_SAMPLES),),
    MsgType.RRC_SETUP: (FieldSpec("srb_id", (0, 2)),),
}


def soal_enumerate(msg_type: MsgType, field_specs, phases=("before_encryption",)) -> list[FuzzAction]:
    """All (field, value, phase) cases for one message type, deduplicated,
    in declaration order."""
    offsets = FIELD_OFFSETS.get(msg_type, {})
    actions = []
    seen = set()
    for spec in field_specs:
        if spec.name not in offsets:
            raise UnknownField(f"{msg_type.name} has no fuzzable field {spec.name!r}")
        for value in spec.values:
            for phase in phases:
                key = (spec.name, value, phase)
                if key in seen:
                    continue
                seen.add(key)
                actions.append(
                    FuzzAction(
                        kind="bit_fuzz",
                        layer="rrc" if phase == "before_encryption" else "mac",
                        phase=phase,
                        msg_type=msg_type,
                        field_name=spec.name,
                        value=value,
                    )
                )
    return actions


def default_enumeration(phases=("before_encryption",)) -> list[FuzzAction]:
    actions = []
    for msg_type, specs in DEFAULT_FIELD_DOMAINS.items():
        actions.extend(soal_enumerate(msg_type, specs, phases))
    return actions


def soal_campaign(target: HandshakeTarget, actions) -> CampaignResult:
    """Run bit-level cases, labelling failure and behaviour-altering results.

    A case counts as a vulnerability when the connection fails outright or
    when it completes with a different negotiated service than the unfuzzed
    baseline (the establishment-cause downgrade class).
    """
    baseline = target.baseline_service()

    def attempt(action):
        trace, service, reason = target.attempt_bit_fuzz(action)
        if trace.outcome == FAILED:
            label = "integrity_failure" if reason == "integrity" else "failure"
        elif (
            action.field_name == "establishment_cause"
            and service is not None
            and service != baseline
        ):
            label = "behavior_altering"
        else:
            label = "none"
        return action, trace, label

    return run_campaign("soal", 0, actions, attempt)
