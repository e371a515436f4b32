"""Endpoint state machines and handshake behaviour on both transports."""

import time

import pytest

from fuzztwin import twin
from fuzztwin.relay import ForwardDecision
from fuzztwin.store import CampaignStore
from fuzztwin.twin import (
    CONNECTED,
    FAILED,
    GNB,
    HANDSHAKE_SEQUENCE,
    IDLE,
    SETUP_COMPLETE,
    SETUP_SENT,
    UE,
    EndpointState,
    IncomingFrame,
    Start,
    TimerExpired,
    TwinConfig,
    VulnerabilityProfile,
    derive_state_id,
    gnb_step,
    identity_interceptor,
    replay_handshake,
    run_connection,
    run_socket_connection,
    state_id_for,
    ue_step,
)
from fuzztwin.wire import (
    Direction,
    Message,
    MsgType,
    SecurityContext,
    ServiceType,
    encode_message,
)

RNTI = 0x4601
EMPTY = VulnerabilityProfile.empty()


def msg(msg_type, **fields):
    return Message(msg_type=msg_type, rnti=RNTI, fields=fields)


def fresh(role):
    return EndpointState(role=role, rnti=RNTI)


# ---------------------------------------------------------------------------
# pure transitions
# ---------------------------------------------------------------------------


def test_ue_start_sends_setup_request():
    state, out = ue_step(fresh(UE), Start(), EMPTY)
    assert state.phase == SETUP_SENT
    assert [m.msg_type for m in out] == [MsgType.RRC_SETUP_REQUEST]


def test_ue_accepts_srb1():
    state, _ = ue_step(fresh(UE), Start(), EMPTY)
    state, out = ue_step(state, IncomingFrame(msg(MsgType.RRC_SETUP, srb_id=1)), EMPTY)
    assert state.phase == SETUP_COMPLETE
    assert [m.msg_type for m in out] == [MsgType.RRC_SETUP_COMPLETE]


@pytest.mark.parametrize("srb_id", [0, 2])
def test_ue_rejects_bad_srb_id(srb_id):
    state, _ = ue_step(fresh(UE), Start(), EMPTY)
    state, out = ue_step(state, IncomingFrame(msg(MsgType.RRC_SETUP, srb_id=srb_id)), EMPTY)
    assert state.phase == FAILED
    assert out == []


def test_gnb_sets_service_type_from_cause():
    state, out = gnb_step(
        fresh(GNB),
        IncomingFrame(msg(MsgType.RRC_SETUP_REQUEST, ue_id=0, establishment_cause=0b0000, spare=0)),
        EMPTY,
    )
    assert state.service_type is ServiceType.EMERGENCY
    assert [m.msg_type for m in out] == [MsgType.RRC_SETUP]


def test_idle_gnb_ignores_timers():
    state, out = gnb_step(fresh(GNB), TimerExpired(), EMPTY)
    assert state.phase == IDLE and out == []


def test_steps_are_pure():
    state = fresh(UE)
    first = ue_step(state, Start(), EMPTY)
    second = ue_step(state, Start(), EMPTY)
    assert first == second
    assert state.phase == IDLE  # input untouched


def test_replayed_setup_request_with_profile_pair_fails_gnb():
    profile = VulnerabilityProfile.from_type_pairs(
        [(MsgType.UE_CAPABILITY_INFORMATION, MsgType.RRC_SETUP_REQUEST)], RNTI
    )
    # walk the gNB to CAPABILITY_PENDING, i.e. post security activation
    state = fresh(GNB)
    state, _ = gnb_step(state, IncomingFrame(msg(MsgType.RRC_SETUP_REQUEST, ue_id=3, establishment_cause=6, spare=1)), profile)
    state, _ = gnb_step(state, IncomingFrame(msg(MsgType.RRC_SETUP_COMPLETE)), profile)
    state, _ = gnb_step(state, IncomingFrame(msg(MsgType.SECURITY_MODE_COMPLETE)), profile)
    assert state.security.activated
    state, out = gnb_step(
        state, IncomingFrame(msg(MsgType.RRC_SETUP_REQUEST, ue_id=3, establishment_cause=6, spare=1)), profile
    )
    assert state.phase == FAILED and out == []


def test_replayed_message_without_profile_pair_is_ignored():
    state = fresh(GNB)
    state, _ = gnb_step(state, IncomingFrame(msg(MsgType.RRC_SETUP_REQUEST, ue_id=3, establishment_cause=6, spare=1)), EMPTY)
    before = state
    state, out = gnb_step(state, IncomingFrame(msg(MsgType.SECURITY_MODE_COMPLETE)), EMPTY)
    assert state == before and out == []


def test_pure_replay_covers_canonical_sequence():
    ue, gnb, log = replay_handshake(TwinConfig())
    assert ue.phase == CONNECTED and gnb.phase == CONNECTED
    assert tuple(m.msg_type for _, m in log) == HANDSHAKE_SEQUENCE


# ---------------------------------------------------------------------------
# state ids
# ---------------------------------------------------------------------------


def test_state_id_stable_and_injective_on_type():
    ctx = SecurityContext()
    m = msg(MsgType.RRC_SETUP_REQUEST, ue_id=1, establishment_cause=6, spare=0)
    f1 = encode_message(m, ctx, Direction.UPLINK)
    f2 = encode_message(m, ctx, Direction.UPLINK)
    assert derive_state_id(f1) == derive_state_id(f2)
    other = encode_message(msg(MsgType.RRC_SETUP, srb_id=1), ctx, Direction.DOWNLINK)
    assert derive_state_id(f1) != derive_state_id(other)


def test_state_id_sensitive_to_rnti_high_byte():
    ctx = SecurityContext()
    a = encode_message(Message(MsgType.RRC_SETUP_REQUEST, rnti=0x1100), ctx, Direction.UPLINK)
    b = encode_message(Message(MsgType.RRC_SETUP_REQUEST, rnti=0x2200), ctx, Direction.UPLINK)
    assert derive_state_id(a) != derive_state_id(b)


def test_state_id_for_matches_derived():
    ctx = SecurityContext()
    frame = encode_message(msg(MsgType.RRC_SETUP, srb_id=1), ctx, Direction.DOWNLINK)
    assert state_id_for(MsgType.RRC_SETUP, RNTI) == derive_state_id(frame)


# ---------------------------------------------------------------------------
# profile generation
# ---------------------------------------------------------------------------


def test_profile_generation_shapes():
    commands = [f"cmd{i:02d}" for i in range(10)]
    row = VulnerabilityProfile.generate(commands, 6, "row_clustered", seed=1)
    assert row.count == 6
    assert len({a for a, _ in row.pairs}) == 1  # 6 pairs fit one source row
    col = VulnerabilityProfile.generate(commands, 6, "column_clustered", seed=1)
    assert len({b for _, b in col.pairs}) == 1
    uni = VulnerabilityProfile.generate(commands, 6, "uniform", seed=1)
    assert uni.count == 6


# ---------------------------------------------------------------------------
# handshakes on both transports
# ---------------------------------------------------------------------------

# every test below runs its scenario on the in-process transport and on
# loopback sockets, and names the transport in its assertion messages
TRANSPORTS = (run_connection, run_socket_connection)


def golden_sequence(config):
    return tuple(state_id_for(t, config.rnti) for t in HANDSHAKE_SEQUENCE)


def test_direct_handshake_succeeds_with_golden_trace():
    config = TwinConfig(seed=7)
    for connect in TRANSPORTS:
        trace = connect(config).trace
        assert trace.outcome == "Success", connect.__name__
        assert tuple(trace.state_sequence()) == golden_sequence(config), connect.__name__
        # virtual timestamps: strictly increasing, one tick apart
        times = [t for _, t in trace.states]
        assert times == [config.tick_ns * (i + 1) for i in range(len(times))], connect.__name__


def test_relay_handshake_matches_direct_run():
    config = TwinConfig(seed=7)
    for connect in TRANSPORTS:
        direct = connect(config).trace
        relayed = connect(config, None, identity_interceptor).trace
        assert relayed.outcome == "Success", connect.__name__
        assert relayed.states == direct.states, connect.__name__


def test_handshake_deterministic_across_runs():
    config = TwinConfig(seed=3)
    for connect in TRANSPORTS:
        a = connect(config, None, identity_interceptor).trace
        b = connect(config, None, identity_interceptor).trace
        assert a.content_hash() == b.content_hash(), connect.__name__


def test_drop_everything_times_out_failed():
    config = TwinConfig(seed=1, timeout=0.6, retransmit_interval=0.1)
    for connect in TRANSPORTS:
        trace = connect(config, None, lambda frame: ForwardDecision.drop()).trace
        assert trace.outcome == "Failed", connect.__name__


def capture_frames(connect, config):
    """Frames of a clean relayed run, by state id (first of each)."""
    recorded = {}

    def capture(frame):
        recorded.setdefault(derive_state_id(frame), frame)
        return ForwardDecision.pass_()

    connect(config, None, capture)
    return recorded


class ReplaceOnce:
    """Replace the first frame with state id ``sid`` by ``frame``."""

    def __init__(self, sid, frame):
        self.sid = sid
        self.frame = frame
        self.fuzzed = False

    def __call__(self, frame):
        if not self.fuzzed and derive_state_id(frame) == self.sid:
            self.fuzzed = True
            return ForwardDecision.replace(self.frame)
        return ForwardDecision.pass_()


def test_one_pair_profile_forces_failure_through_sockets():
    config = TwinConfig(seed=2)
    profile = VulnerabilityProfile.from_type_pairs(
        [(MsgType.RRC_SETUP, MsgType.SECURITY_MODE_COMMAND)], config.rnti
    )
    setup = state_id_for(MsgType.RRC_SETUP, config.rnti)
    for connect in TRANSPORTS:
        clean = connect(config).trace
        # capture a SecurityModeCommand frame from a clean run first
        smc = capture_frames(connect, config)[
            state_id_for(MsgType.SECURITY_MODE_COMMAND, config.rnti)
        ]
        trace = connect(config, profile, ReplaceOnce(setup, smc)).trace
        assert trace.outcome == "Failed", connect.__name__
        assert clean.outcome == "Success", connect.__name__


class ReplaceThenHold(ReplaceOnce):
    """ReplaceOnce on a downlink frame, then drop every downlink frame until
    the UE has sent ``request_sid`` a second time.

    After the injected frame the UE hears nothing valid, so its own
    retransmit timer must fire whatever the timing of the gNB's; without the
    hold, the gNB's retransmission can reach the UE first on sockets.
    """

    def __init__(self, sid, frame, request_sid):
        super().__init__(sid, frame)
        self.request_sid = request_sid
        self.requests = 0

    def __call__(self, frame):
        if frame.direction is Direction.UPLINK:
            self.requests += derive_state_id(frame) == self.request_sid
            return ForwardDecision.pass_()
        if self.fuzzed and self.requests < 2:
            return ForwardDecision.drop()
        return super().__call__(frame)


def test_unprofiled_replacement_recovers_via_retransmission():
    config = TwinConfig(seed=2, retransmit_interval=0.08, timeout=3.0)
    setup = state_id_for(MsgType.RRC_SETUP, config.rnti)
    request = state_id_for(MsgType.RRC_SETUP_REQUEST, config.rnti)
    smc_sid = state_id_for(MsgType.SECURITY_MODE_COMMAND, config.rnti)
    for connect in TRANSPORTS:
        smc = capture_frames(connect, config)[smc_sid]
        trace = connect(config, None, ReplaceThenHold(setup, smc, request)).trace
        assert trace.outcome == "Success", connect.__name__
        seq = trace.state_sequence()
        # the injected command shows up, the UE retransmits its request and
        # the gNB's retransmitted setup then gets through
        assert seq[:3] == [request, smc_sid, request], connect.__name__
        assert setup in seq[3:], connect.__name__
        if connect is run_connection:
            # both timers fall due at the same virtual instant and the UE's
            # fires first, so the setup follows the first retransmission
            assert seq[3] == setup


def test_baseline_batch_all_succeed():
    config = TwinConfig(seed=11)
    for connect in TRANSPORTS:
        for _ in range(5):
            assert connect(config).trace.outcome == "Success", connect.__name__


def test_socket_relayed_baseline_batch_is_byte_identical():
    """Acceptance check c01 (run_handshake, in process) on sockets: 100
    relayed handshakes complete, byte-identical, in under 10 s."""
    config = TwinConfig(seed=7)
    started = time.monotonic()
    traces = [run_socket_connection(config, None, identity_interceptor).trace
              for _ in range(100)]
    elapsed = time.monotonic() - started
    assert all(t.outcome == "Success" for t in traces)
    assert {t.content_hash() for t in traces} == {
        run_connection(config, None, identity_interceptor).trace.content_hash()
    }
    assert elapsed < 10.0


def test_handshake_persists_rows_to_store():
    config = TwinConfig(seed=5)
    for connect in TRANSPORTS:
        store = CampaignStore()
        trace = connect(config, store=store).trace
        assert trace.trace_id
        assert store.get_trace(trace.trace_id) is not None
        assert len(store.actions) == len(trace.states)
        for action in store.actions:
            assert action.state_id in store.states


def test_relay_report_counts_on_both_transports():
    config = TwinConfig(seed=6)
    clean = [connect(config, None, identity_interceptor) for connect in TRANSPORTS]
    reports = [r.relay_report for r in clean]
    assert reports[0].uplink_frames == reports[1].uplink_frames == 5
    assert reports[0].downlink_frames == reports[1].downlink_frames == 5
    assert all(connect(config).relay_report is None for connect in TRANSPORTS)

    setup = state_id_for(MsgType.RRC_SETUP, config.rnti)
    smc = capture_frames(run_connection, config)[
        state_id_for(MsgType.SECURITY_MODE_COMMAND, config.rnti)
    ]
    for connect in TRANSPORTS:
        report = connect(config, None, ReplaceOnce(setup, smc)).relay_report
        assert (report.replaced, report.mutated, report.dropped) == (1, 0, 0), connect.__name__


def test_virtual_timeout_returns_without_waiting():
    """A CONNECTED UE ignores the gNB's retransmitted reconfiguration, so
    replacing the reconfiguration complete runs into the liveness timeout,
    which on the in-process transport costs no wall-clock time."""
    config = TwinConfig(seed=4)
    reconf = state_id_for(MsgType.RRC_RECONFIGURATION, config.rnti)
    frames = capture_frames(run_connection, config)
    request = frames[state_id_for(MsgType.RRC_SETUP_REQUEST, config.rnti)]
    interceptor = ReplaceOnce(state_id_for(MsgType.RRC_RECONFIGURATION_COMPLETE, config.rnti),
                              request)
    started = time.perf_counter()
    trace = run_connection(config, None, interceptor).trace
    elapsed = time.perf_counter() - started
    assert elapsed < 0.2
    assert trace.outcome == "Failed"
    # the first reconfiguration, then one retransmission per interval up to
    # and including the timeout
    retransmits = trace.state_sequence().count(reconf) - 1
    assert retransmits == round(config.timeout / config.retransmit_interval)


def test_virtual_clock_rejects_non_positive_retransmit_interval():
    # an interval that rounds to 0 ns would never move the clock towards the
    # timeout, and an infinite one has no integer nanosecond count
    for interval in (0.0, -0.1, 1e-10, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            run_connection(TwinConfig(retransmit_interval=interval))
    with pytest.raises(ValueError):
        run_connection(TwinConfig(timeout=float("inf")))
