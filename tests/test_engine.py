"""Strategy engines: pools, probability scheduling, bit-level enumeration."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzztwin import engine, experiments, twin
from fuzztwin.cli import DEFAULT_PROFILE_TYPE_PAIRS
from fuzztwin.engine import (
    FAILED,
    SUCCESS,
    CandidatePool,
    EmptyPool,
    FieldSpec,
    FuzzAction,
    HandshakeTarget,
    ProbabilityMatrix,
    RowExhausted,
    SimulatedTarget,
    UnknownField,
    lal_campaign,
    random_campaign,
    soal_enumerate,
    syal_campaign,
    syal_select,
    syal_update,
    default_enumeration,
    weighted_index,
)
from fuzztwin.store import CampaignStore
from fuzztwin.twin import TwinConfig, VulnerabilityProfile, state_id_for
from fuzztwin.wire import (
    Direction,
    Frame,
    IntegrityError,
    Message,
    MsgType,
    SecurityContext,
    decode_message,
    encode_message,
    verify_checksum,
)


def frame_of(msg_type, rnti=0x4601, **fields):
    return encode_message(
        Message(msg_type=msg_type, rnti=rnti, fields=fields),
        SecurityContext(),
        Direction.UPLINK if msg_type.name.endswith("REQUEST") else Direction.DOWNLINK,
    )


# ---------------------------------------------------------------------------
# candidate pool
# ---------------------------------------------------------------------------


def test_pool_two_commands_two_ordered_cases():
    pool = CandidatePool()
    pool.observe(frame_of(MsgType.RRC_SETUP, srb_id=1))
    pool.observe(frame_of(MsgType.SECURITY_MODE_COMMAND))
    pairs = pool.replacement_pairs()
    assert len(pairs) == 2
    assert {tuple(p) for p in pairs} == {(pairs[0][0], pairs[0][1]), (pairs[1][0], pairs[1][1])}
    assert pairs[0] == (pairs[1][1], pairs[1][0])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pool_k_commands_k_times_k_minus_one_cases(k):
    types = [
        MsgType.RRC_SETUP,
        MsgType.SECURITY_MODE_COMMAND,
        MsgType.UE_CAPABILITY_ENQUIRY,
        MsgType.CONNECTION_COMPLETE,
    ]
    pool = CandidatePool()
    for t in types[:k]:
        pool.observe(frame_of(t))
    assert len(pool.replacement_pairs()) == k * (k - 1)


def test_pool_deduplicates_and_separates_channels():
    pool = CandidatePool()
    pool.observe(frame_of(MsgType.RRC_SETUP_REQUEST, ue_id=3, establishment_cause=6, spare=1))
    pool.observe(frame_of(MsgType.RRC_SETUP_REQUEST, ue_id=3, establishment_cause=6, spare=1))
    pool.observe(frame_of(MsgType.RRC_SETUP, srb_id=1))
    assert pool.size == 2
    # uplink and downlink commands never pair up
    assert pool.replacement_pairs() == []


# ---------------------------------------------------------------------------
# probability matrix
# ---------------------------------------------------------------------------


def make_matrix(n=3, p0=0.5):
    return ProbabilityMatrix.uniform([f"c{i}" for i in range(n)], p0=p0)


def test_select_single_untested_entry_is_certain():
    m = make_matrix(3)
    m.tested[0, :] = True
    m.tested[0, 2] = False
    rng = np.random.default_rng(0)
    assert all(syal_select(m, "c0", rng) == "c2" for _ in range(20))


def test_select_uniform_row_is_balanced():
    m = make_matrix(3)
    rng = np.random.default_rng(1)
    draws = [syal_select(m, "c0", rng) for _ in range(10_000)]
    freq = draws.count("c1") / 10_000
    assert abs(freq - 0.5) < 0.05


def test_select_weighted_row_tracks_exact_ratio():
    m = make_matrix(3)
    m.p[0, 1] = 0.9
    m.p[0, 2] = 0.1
    rng = np.random.default_rng(2)
    draws = [syal_select(m, "c0", rng) for _ in range(10_000)]
    freq = draws.count("c1") / 10_000
    assert abs(freq - 0.9) < 0.02


def test_weighted_index_matches_generator_choice():
    # twin generators: the same index for every vector, and the streams stay
    # aligned, so a whole campaign draws the same cases as rng.choice
    vectors = np.random.default_rng(2024)
    ours, numpy_choice = np.random.default_rng(7), np.random.default_rng(7)
    for k in range(12_000):
        n = int(vectors.integers(1, 40))
        w = vectors.random(n) * 10.0 ** vectors.uniform(-3, 3)
        if k % 3 == 1:
            w[vectors.random(n) < 0.5] = 0.0
        elif k % 3 == 2:
            w = np.zeros(n)
            w[int(vectors.integers(n))] = vectors.uniform(0.01, 1.0)
        if not w.any():
            w[-1] = 1.0
        p = w / w.sum()
        assert weighted_index(p, ours) == numpy_choice.choice(n, p=p), k
    assert ours.random() == numpy_choice.random()


def test_select_exhausted_row_raises():
    m = make_matrix(2)
    m.tested[0, 1] = True
    with pytest.raises(RowExhausted):
        syal_select(m, "c0", np.random.default_rng(0))


def test_update_unit_arithmetic():
    m = make_matrix(2)
    syal_update(m, "c0", "c1", FAILED, alpha=0.5, ratio=0.1)
    assert m.p[0, 1] == 0.5 * (1 + 0.5) == 0.75
    m2 = make_matrix(2)
    syal_update(m2, "c0", "c1", SUCCESS, alpha=0.5, ratio=0.1)
    assert m2.p[0, 1] == 0.5 * (1 - 0.5 * 0.1) == 0.475


def test_update_clamps_to_ceiling():
    m = make_matrix(2, p0=0.8)
    syal_update(m, "c0", "c1", FAILED, alpha=0.5, ratio=0.1)
    assert m.p[0, 1] == 1.0


def test_update_clamps_to_floor_on_negative_factor():
    # alpha=2, ratio=0.9 makes the success factor negative; the floor holds
    m = make_matrix(2)
    syal_update(m, "c0", "c1", SUCCESS, alpha=2.0, ratio=0.9)
    assert m.p[0, 1] == m.p_min


def test_update_touches_row_and_column_once():
    m = make_matrix(4)
    syal_update(m, "c1", "c2", FAILED, alpha=0.5, ratio=0.1)
    expected = np.full((4, 4), 0.5)
    expected[1, :] *= 1.5
    expected[:, 2] *= 1.5
    expected[1, 2] = 0.5 * 1.5  # union, not double application
    assert np.array_equal(m.p, np.clip(expected, m.p_min, 1.0))


def test_update_entry_scope_touches_one_cell():
    m = make_matrix(4)
    syal_update(m, "c1", "c2", FAILED, alpha=0.5, ratio=0.1, scope="entry")
    assert m.p[1, 2] == 0.75
    others = np.ones((4, 4), dtype=bool)
    others[1, 2] = False
    assert np.all(m.p[others] == 0.5)


@given(
    outcomes=st.tuples(st.sampled_from([FAILED, SUCCESS]), st.sampled_from([FAILED, SUCCESS])),
    alpha=st.floats(0.05, 0.3),
    ratio=st.floats(0.1, 0.9),
)
@settings(max_examples=40, deadline=None)
def test_update_order_independent_for_disjoint_pairs(outcomes, alpha, ratio):
    # away from the clamp boundary the two orders agree to rounding error
    a = make_matrix(5, p0=0.5)
    b = make_matrix(5, p0=0.5)
    syal_update(a, "c0", "c1", outcomes[0], alpha, ratio)
    syal_update(a, "c2", "c3", outcomes[1], alpha, ratio)
    syal_update(b, "c2", "c3", outcomes[1], alpha, ratio)
    syal_update(b, "c0", "c1", outcomes[0], alpha, ratio)
    assert np.allclose(a.p, b.p, rtol=1e-12, atol=0)


def masked_clip_update(p, i, j, factor, p_min, scope):
    """Reference update: select the touched entries by mask, clip them once."""
    sel = np.zeros(p.shape, dtype=bool)
    if scope == "entry":
        sel[i, j] = True
    else:
        sel[i, :] = True
        sel[:, j] = True
    out = p.copy()
    out[sel] = np.clip(p[sel] * factor, p_min, 1.0)
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    scope=st.sampled_from(["entry", "row_column"]),
    outcome=st.sampled_from([FAILED, SUCCESS]),
    alpha=st.floats(0.0, 3.0),
    ratio=st.floats(0.0, 1.0),
    p_min=st.floats(0.0, 0.3),
)
@settings(max_examples=200, deadline=None)
def test_update_equals_masked_clip_reference(seed, scope, outcome, alpha, ratio, p_min):
    rng = np.random.default_rng(seed)
    m = make_matrix(6)
    m.p = rng.uniform(0.0, 1.2, (6, 6))
    m.p_min = p_min
    i, j = (int(k) for k in rng.integers(6, size=2))
    factor = (1.0 + alpha) if outcome == FAILED else (1.0 - alpha * ratio)
    expected = masked_clip_update(m.p, i, j, factor, p_min, scope)
    syal_update(m, f"c{i}", f"c{j}", outcome, alpha, ratio, scope=scope)
    assert np.array_equal(m.p, expected)


def test_repeated_failures_never_decrease_priority():
    m = make_matrix(3)
    last = m.p[0, 1]
    for _ in range(10):
        syal_update(m, "c0", "c1", FAILED, alpha=0.5, ratio=0.1)
        assert m.p[0, 1] >= last
        last = m.p[0, 1]
    assert last == 1.0


# ---------------------------------------------------------------------------
# simulated campaigns
# ---------------------------------------------------------------------------


def reference_trace(target, a, b, layer="rrc"):
    """A simulated trace built state by state from the alphabet."""
    pos = target.commands.index(a)
    failed = target.profile.forces_failure(a, b)
    seq = target.commands[:pos] + [b]
    if not failed:
        seq = seq + [a] + target.commands[pos + 1 :]
    tick = target.tick_ns
    return engine.ConnectionTrace(
        states=tuple((sid, (i + 1) * tick) for i, sid in enumerate(seq)),
        outcome=FAILED if failed else SUCCESS,
        fuzz_action=engine.command_replace(a, b, layer).to_record(),
        fuzz_time=(pos + 1) * tick,
        outcome_time=(len(seq) + 1) * tick,
    )


def test_simulated_trace_is_memoised_and_equals_reference():
    commands = [f"cmd{i:02d}" for i in range(6)]
    profile = VulnerabilityProfile.generate(commands, 5, "row_clustered", seed=4)
    target = SimulatedTarget(commands, profile, tick_ns=7)
    outcomes = set()
    for layer in ("rrc", "mac"):
        for a in commands:
            for b in commands:
                if a == b:
                    continue
                trace = target.attempt_command_replace(a, b, layer)
                assert target.attempt_command_replace(a, b, layer) is trace
                expected = reference_trace(target, a, b, layer)
                assert trace == expected
                assert trace.content_hash() == expected.content_hash()
                outcomes.add(trace.outcome)
    assert outcomes == {FAILED, SUCCESS}


def test_syal_benchmark_digest_is_pinned():
    # campaign results of the scheduling experiment, byte for byte; any change
    # to the draws, the update arithmetic or the simulated traces moves it
    r = experiments.syal_vs_random_benchmark(seeds=range(40))
    blob = json.dumps([r.as_dict(), r.syal_curves, r.random_curves]).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "c4fae851755e9db7"


def test_syal_empty_profile_zero_curve_full_termination():
    target = SimulatedTarget.alphabet(5, VulnerabilityProfile.empty())
    result, matrix = syal_campaign(target, seed=3)
    assert result.cases_run == 5 * 4
    assert all(found == 0 for _, found in result.found_curve)
    assert not matrix.has_untested()


def test_syal_all_pairs_vulnerable_curve_equals_index():
    commands = [f"cmd{i:02d}" for i in range(4)]
    pairs = frozenset((a, b) for a in commands for b in commands if a != b)
    target = SimulatedTarget(commands, VulnerabilityProfile(pairs=pairs))
    result, _ = syal_campaign(target, seed=5)
    assert result.found_curve == [(i, i) for i in range(1, 13)]


def test_syal_campaign_deterministic():
    profile = VulnerabilityProfile.generate(
        [f"cmd{i:02d}" for i in range(8)], 4, "row_clustered", seed=9
    )
    target = SimulatedTarget.alphabet(8, profile)
    r1, _ = syal_campaign(target, seed=42)
    r2, _ = syal_campaign(target, seed=42)
    assert r1.as_dict() == r2.as_dict()
    r3, _ = syal_campaign(target, seed=43)
    assert r3.as_dict() != r1.as_dict()


def test_syal_evaluation_mode_stops_at_found_count():
    commands = [f"cmd{i:02d}" for i in range(10)]
    profile = VulnerabilityProfile.generate(commands, 5, "row_clustered", seed=1)
    target = SimulatedTarget(commands, profile)
    result, _ = syal_campaign(target, seed=7, stop_after_found=5)
    assert len(result.vulnerabilities_found) == 5
    assert result.found_curve[-1][1] == 5


def test_syal_beats_random_on_row_clustered_profile():
    commands = [f"cmd{i:02d}" for i in range(12)]
    profile = VulnerabilityProfile.generate(commands, 6, "row_clustered", seed=2)
    target = SimulatedTarget(commands, profile)
    syal_cases, random_cases = [], []
    for seed in range(8):
        r_s, _ = syal_campaign(target, seed=seed, stop_after_found=6)
        r_r = random_campaign(target, seed=seed, stop_after_found=6)
        syal_cases.append(r_s.cases_run)
        random_cases.append(r_r.cases_run)
    assert float(np.median(syal_cases)) < float(np.median(random_cases))


@pytest.mark.parametrize("prior", [0, 2])
def test_syal_stop_after_found_learns_the_last_outcome(prior):
    commands = [f"cmd{i:02d}" for i in range(8)]
    profile = VulnerabilityProfile.generate(commands, 5, "row_clustered", seed=6)
    target = SimulatedTarget(commands, profile)
    prior_pairs = sorted(profile.pairs)[:prior]
    result, matrix = syal_campaign(
        target, seed=4, stop_after_found=3 - prior, prior_pairs=prior_pairs
    )
    assert len(result.vulnerabilities_found) == 3 - prior
    assert 0 < result.cases_run < len(commands) * (len(commands) - 1) - prior
    # the case that reached the stop count was marked tested before the stop
    assert int(matrix.tested.sum()) == result.cases_run + len(prior_pairs)


def test_stop_after_found_zero_runs_no_case():
    target = SimulatedTarget.alphabet(5, VulnerabilityProfile.empty())
    result, matrix = syal_campaign(target, seed=1, stop_after_found=0)
    assert result.cases_run == 0 and result.found_curve == [] and result.case_log == []
    assert not matrix.tested.any()
    assert random_campaign(target, seed=1, stop_after_found=0).cases_run == 0


def test_run_campaign_draws_each_case_after_the_previous_attempt():
    events = []

    def cases():
        for k in range(4):
            events.append(("draw", k))
            yield k

    def attempt(k):
        events.append(("attempt", k))
        trace = engine.ConnectionTrace(outcome=FAILED if k % 2 else SUCCESS)
        return FuzzAction(kind="command_replace"), trace, "failure" if k % 2 else "none"

    result = engine.run_campaign("demo", 9, cases(), attempt, stop_after_found=2)
    # the driver stops on the second finding without drawing a fifth case
    assert events == [(kind, k) for k in range(4) for kind in ("draw", "attempt")]
    assert result.cases_run == 4
    assert result.found_curve == [(1, 0), (2, 1), (3, 1), (4, 2)]
    assert [label for _, _, label in result.case_log] == ["none", "failure"] * 2


def test_prior_pairs_are_boosted_and_excluded():
    commands = [f"cmd{i:02d}" for i in range(6)]
    profile = VulnerabilityProfile.generate(commands, 4, "row_clustered", seed=3)
    target = SimulatedTarget(commands, profile)
    prior = sorted(profile.pairs)[:2]
    result, matrix = syal_campaign(target, seed=11, prior_pairs=prior)
    # seeded pairs are never re-fuzzed and never counted as findings
    fuzzed = {(v.source_state, v.replacement_state) for v, _ in result.vulnerabilities_found}
    assert not fuzzed & set(prior)
    assert len(result.vulnerabilities_found) == 2
    for a, b in prior:
        assert matrix.tested[matrix.idx(a), matrix.idx(b)]


# ---------------------------------------------------------------------------
# SoAL enumeration and application
# ---------------------------------------------------------------------------


def test_enumerate_cause_gives_16_cases():
    actions = soal_enumerate(
        MsgType.RRC_SETUP_REQUEST, [FieldSpec("establishment_cause", tuple(range(16)))]
    )
    assert len(actions) == 16
    assert all(a.phase == "before_encryption" for a in actions)


def test_enumerate_ue_identity_three_declared_values():
    actions = soal_enumerate(MsgType.RRC_SETUP_REQUEST, [FieldSpec("ue_id", (0, 1, 2))])
    assert [a.value for a in actions] == [0, 1, 2]


def test_enumerate_singleton_domain_one_case():
    actions = soal_enumerate(MsgType.RRC_SETUP, [FieldSpec("srb_id", (0,))])
    assert len(actions) == 1


def test_enumerate_unknown_field_rejected():
    with pytest.raises(UnknownField):
        soal_enumerate(MsgType.RRC_SETUP, [FieldSpec("nonexistent", (1,))])


def test_enumerate_deduplicates_and_orders_deterministically():
    actions = soal_enumerate(MsgType.RRC_SETUP, [FieldSpec("srb_id", (0, 2, 0))])
    assert [a.value for a in actions] == [0, 2]


def test_default_enumeration_is_33_before_encryption_cases():
    actions = default_enumeration()
    assert len(actions) == 33
    per_field = {}
    for a in actions:
        per_field[a.field_name] = per_field.get(a.field_name, 0) + 1
    assert per_field == {
        "ue_id": 3,
        "establishment_cause": 16,
        "sr_config_index": 12,
        "srb_id": 2,
    }


def recorded_setup_requests(action, seed):
    """Setup-request frames a store records for a clean connection and then
    for one bit-level case, in that order."""
    config = TwinConfig(seed=seed)
    store = CampaignStore()
    target = HandshakeTarget(config, store=store)
    target.bootstrap()
    target.attempt_bit_fuzz(action)
    sid = state_id_for(MsgType.RRC_SETUP_REQUEST, config.rnti)
    frames = [
        Frame(bytes.fromhex(row.raw_bytes), Direction.UPLINK)
        for row in store.actions
        if row.state_id == sid
    ]
    assert len(frames) == 2
    return frames


def test_bit_fuzz_before_encryption_rewrites_field():
    action = FuzzAction(
        kind="bit_fuzz", phase="before_encryption",
        msg_type=MsgType.RRC_SETUP_REQUEST, field_name="establishment_cause", value=0,
    )
    clean, fuzzed = recorded_setup_requests(action, seed=26)
    before = decode_message(clean, SecurityContext())
    after = decode_message(fuzzed, SecurityContext())
    assert before.fields["establishment_cause"] != 0
    assert after.fields["establishment_cause"] == 0
    assert after.fields["spare"] == before.fields["spare"] == 1  # field-granular


def test_bit_fuzz_after_encryption_leaves_checksum_stale():
    action = FuzzAction(
        kind="bit_fuzz", phase="after_encryption", layer="mac",
        msg_type=MsgType.RRC_SETUP_REQUEST, field_name="establishment_cause", value=0,
    )
    clean, mutated = recorded_setup_requests(action, seed=27)
    verify_checksum(clean)
    assert mutated.raw != clean.raw
    with pytest.raises(IntegrityError):
        verify_checksum(mutated)


# ---------------------------------------------------------------------------
# twin campaigns
# ---------------------------------------------------------------------------

DOWNLINK_PROFILE_PAIRS = [
    (MsgType.RRC_SETUP, MsgType.UE_CAPABILITY_ENQUIRY),
    (MsgType.SECURITY_MODE_COMMAND, MsgType.CONNECTION_COMPLETE),
]


@pytest.fixture(scope="module")
def socket_lal_outcomes():
    """Full downlink LAL run on the twin, shared across assertions."""
    config = TwinConfig(seed=21, retransmit_interval=0.05, timeout=2.0)
    profile = VulnerabilityProfile.from_type_pairs(DOWNLINK_PROFILE_PAIRS, config.rnti)
    target = HandshakeTarget(config, profile)
    target.bootstrap()
    result = lal_campaign(
        target.pool, budget=1000, seed=1, target=target, channels=("PDSCH",)
    )
    return config, profile, result


def pool_outcomes(config, profile):
    """Outcome of replacing every same-channel pool pair, by pair, on
    whichever transport ``engine.run_connection`` is."""
    target = HandshakeTarget(config, profile)
    target.bootstrap()
    return {
        (a, b): target.attempt_command_replace(a, b)
        for a, b in target.pool.replacement_pairs()
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_loopback_and_socket_outcomes_agree_on_every_pool_pair(seed, monkeypatch):
    """The in-process transport reproduces the socket twin's outcome on every
    pool pair of both channels, and repeats its own traces exactly.

    The socket side gets three times the timeout in wall-clock seconds, so a
    loaded machine does not turn a slow Success into a Failed; a case that
    gives up too early in virtual time still disagrees.
    """
    config = TwinConfig(seed=seed, timeout=0.5, retransmit_interval=0.05)
    profile = VulnerabilityProfile.from_type_pairs(DEFAULT_PROFILE_TYPE_PAIRS, config.rnti)
    loopback = pool_outcomes(config, profile)
    rerun = pool_outcomes(config, profile)
    monkeypatch.setattr(engine, "run_connection", twin.run_socket_connection)
    sockets = pool_outcomes(replace(config, timeout=3 * config.timeout), profile)

    assert {a.split(":")[0] for a, _ in loopback} == {"PDSCH", "PUSCH"}
    assert len(loopback) == 4 * 3 + 5 * 4
    assert sockets.keys() == loopback.keys()
    for pair, trace in loopback.items():
        assert trace.outcome == sockets[pair].outcome, pair
        assert trace.content_hash() == rerun[pair].content_hash(), pair


def test_lal_requires_observations():
    with pytest.raises(EmptyPool):
        lal_campaign(CandidatePool(), budget=10, seed=0, target=None)


def test_socket_outcomes_match_profile_oracle(socket_lal_outcomes):
    """The simulated target's outcome rule is exactly the twin's behaviour."""
    config, profile, result = socket_lal_outcomes
    final_marker = state_id_for(MsgType.CONNECTION_COMPLETE, config.rnti)
    assert result.cases_run == 4 * 3  # four PDSCH commands observed
    for action, outcome, _ in result.case_log:
        pair = (action.source_state, action.replacement_state)
        if action.source_state == final_marker:
            # the completion marker is emitted before the replacement lands,
            # so these cases cannot fail the connection
            assert outcome == SUCCESS
        else:
            expected = FAILED if pair in profile.pairs else SUCCESS
            assert outcome == expected


def test_lal_campaign_covers_all_pairs(socket_lal_outcomes):
    config, profile, result = socket_lal_outcomes
    assert result.found_curve[-1] == (result.cases_run, len(result.vulnerabilities_found))
    assert len(result.vulnerabilities_found) == 2


def test_uplink_setup_request_to_security_complete_fails():
    """Replaying the recorded security-mode complete over the setup request
    (the A-to-D uplink case) trips a built-in flaw pair."""
    config = TwinConfig(seed=22, retransmit_interval=0.05)
    profile = VulnerabilityProfile.from_type_pairs(
        [(MsgType.RRC_SETUP_REQUEST, MsgType.SECURITY_MODE_COMPLETE)], config.rnti
    )
    target = HandshakeTarget(config, profile)
    target.bootstrap()
    a = state_id_for(MsgType.RRC_SETUP_REQUEST, config.rnti)
    d = state_id_for(MsgType.SECURITY_MODE_COMPLETE, config.rnti)
    trace = target.attempt_command_replace(a, d, layer="rrc")
    assert trace.outcome == FAILED


def test_before_encryption_cause_rewrite_changes_service():
    config = TwinConfig(seed=23)
    target = HandshakeTarget(config)
    target.bootstrap()
    action = FuzzAction(
        kind="bit_fuzz", phase="before_encryption",
        msg_type=MsgType.RRC_SETUP_REQUEST, field_name="establishment_cause", value=0b0000,
    )
    trace, service, reason = target.attempt_bit_fuzz(action)
    assert trace.outcome == SUCCESS
    assert service.value == "emergency"


def test_after_encryption_cause_write_fails_integrity():
    config = TwinConfig(seed=24)
    target = HandshakeTarget(config)
    target.bootstrap()
    action = FuzzAction(
        kind="bit_fuzz", phase="after_encryption", layer="mac",
        msg_type=MsgType.RRC_SETUP_REQUEST, field_name="establishment_cause", value=0b0110,
    )
    trace, _, reason = target.attempt_bit_fuzz(action)
    assert trace.outcome == FAILED
    assert reason == "integrity"


def test_before_encryption_sr_config_157_succeeds():
    config = TwinConfig(seed=25)
    target = HandshakeTarget(config)
    target.bootstrap()
    action = FuzzAction(
        kind="bit_fuzz", phase="before_encryption",
        msg_type=MsgType.RRC_RECONFIGURATION, field_name="sr_config_index", value=157,
    )
    trace, service, _ = target.attempt_bit_fuzz(action)
    assert trace.outcome == SUCCESS
