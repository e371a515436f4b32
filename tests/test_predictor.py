"""LSTM forward/backward correctness, ROC machinery and training behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import separable_toy
from fuzztwin.predictor import (
    Duration,
    EmptySequence,
    IndexOutOfVocab,
    LstmModel,
    SequenceSample,
    SingleClass,
    SingleClassDataset,
    Steps,
    TrainConfig,
    analytic_gradients,
    auc_pairs,
    auc_trapezoid,
    batch_gradients,
    central_difference,
    cutoff_sweep,
    detection_time,
    gradient_check,
    lstm_forward,
    lstm_train,
    make_samples,
    max_relative_error,
    numeric_gradients,
    roc_curve,
    sample_loss,
    truncate_indices,
)
from fuzztwin.store import ConnectionTrace
from fuzztwin.synth import generate_dataset


def sample_of(states, cutoff=Steps(10), label=1):
    ts = tuple(0.01 * (i + 1) for i in range(len(states)))
    return SequenceSample(tuple(states), ts, label, cutoff, ts[-1] + 0.02)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_zero_parameters_output_half():
    model = LstmModel.zeros(vocab_size=4)
    assert lstm_forward(model, sample_of([0, 1, 2])) == 0.5


def test_output_invariant_beyond_cutoff():
    model = LstmModel.init(6, seed=3)
    base = sample_of([1, 2, 3, 4, 5, 0, 1, 2, 3, 4], cutoff=Steps(4))
    extended = sample_of(list(base.states) + [5, 5, 5], cutoff=Steps(4))
    assert lstm_forward(model, base) == lstm_forward(model, extended)


def test_duration_cutoff_truncates_by_timestamp():
    s = sample_of([0, 1, 2, 3], cutoff=Duration(0.025))
    assert truncate_indices(s) == [0, 1]  # timestamps 0.01, 0.02 < 0.025
    assert detection_time(s) == pytest.approx(0.02)


def test_forward_matches_hand_rolled_scalar_cell():
    """Independent step-by-step recomputation with 1-dim gates."""
    model = LstmModel.zeros(vocab_size=3, embed_dim=1, hidden_dim=1)
    model.embedding = np.array([[0.7], [-0.4], [1.0]])
    model.w_x = np.array([[0.5], [-0.3], [0.8], [0.2]])  # i, f, g, o
    model.w_h = np.array([[0.1], [0.2], [-0.1], [0.3]])
    model.bias = np.array([0.0, 1.0, 0.0, 0.0])
    model.w_out = np.array([1.2])
    model.b_out = np.array([0.3])

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = c = 0.0
    for x in (0.7, -0.4, 1.0):  # states 0, 1, 2
        i = sigmoid(0.5 * x + 0.1 * h)
        f = sigmoid(-0.3 * x + 0.2 * h + 1.0)
        g = math.tanh(0.8 * x - 0.1 * h)
        o = sigmoid(0.2 * x + 0.3 * h)
        c = f * c + i * g
        h = o * math.tanh(c)
    expected = sigmoid(1.2 * h + 0.3)

    got = lstm_forward(model, sample_of([0, 1, 2], cutoff=Steps(3)))
    assert got == pytest.approx(expected, rel=1e-12)


def test_long_sequence_is_stable():
    model = LstmModel.init(5, seed=0)
    s = sample_of([1, 2, 3, 4] * 2500, cutoff=Steps(10_000))
    p = lstm_forward(model, s)
    assert 0.0 < p < 1.0 and math.isfinite(p)


def test_forward_errors():
    model = LstmModel.zeros(4)
    with pytest.raises(EmptySequence):
        lstm_forward(model, sample_of([1, 2], cutoff=Steps(0)))
    with pytest.raises(IndexOutOfVocab):
        lstm_forward(model, sample_of([9]))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_central_difference_on_quadratic_stub():
    theta = np.array([0.5, -1.5, 2.0, 0.25])
    fn = lambda: float((theta**2).sum())
    grad = central_difference(fn, theta, epsilon=1e-5)
    rel = np.abs(grad - 2 * theta) / (np.abs(grad) + np.abs(2 * theta) + 1e-8)
    assert float(rel.max()) <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_check_small_model(seed):
    model = LstmModel.init(vocab_size=6, embed_dim=4, hidden_dim=5, seed=seed)
    s = sample_of([1, 3, 5, 0, 2], cutoff=Steps(5), label=seed % 2)
    assert gradient_check(model, s, epsilon=1e-5) <= 1e-4


def test_corrupted_forget_gradient_is_detected():
    model = LstmModel.init(vocab_size=6, embed_dim=4, hidden_dim=5, seed=1)
    s = sample_of([1, 3, 5, 0, 2], cutoff=Steps(5))
    analytic = analytic_gradients(model, s)
    numeric = numeric_gradients(model, s, epsilon=1e-5)
    h = model.hidden_dim
    analytic["w_x"][h : 2 * h] *= 1.5  # sabotage the forget-gate block
    analytic["bias"][h : 2 * h] *= 1.5
    assert max_relative_error(analytic, numeric) > 1e-2


def mixed_length_batch(n=12, seed=0, vocab=6):
    """Length-10 sequences whose Duration cutoffs keep 1 to 10 states."""
    rng = np.random.default_rng(seed)
    samples = [
        sample_of(
            [int(v) for v in rng.integers(0, vocab, size=10)],
            cutoff=Duration(0.01 * keep + 0.005),
            label=int(rng.integers(0, 2)),
        )
        for keep in rng.integers(1, 11, size=n)
    ]
    assert {len(truncate_indices(s)) for s in samples} >= {1, 10}
    return samples


def loop_gradients(model, sample):
    """Reference BPTT, one sample and one step at a time."""
    hidden = model.hidden_dim
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h, c, steps = np.zeros(hidden), np.zeros(hidden), []
    for idx in truncate_indices(sample):
        x = model.embedding[idx]
        z = model.w_x @ x + model.w_h @ h + model.bias
        i, f = sig(z[:hidden]), sig(z[hidden : 2 * hidden])
        g, o = np.tanh(z[2 * hidden : 3 * hidden]), sig(z[3 * hidden :])
        c_new = f * c + i * g
        steps.append((idx, x, h, c, i, f, g, o, c_new))
        h, c = o * np.tanh(c_new), c_new
    d_logit = sig(model.w_out @ h + model.b_out[0]) - sample.label
    grads = {name: np.zeros_like(v) for name, v in model.params().items()}
    grads["w_out"] += d_logit * h
    grads["b_out"] += d_logit
    dh, dc = d_logit * model.w_out, np.zeros(hidden)
    for idx, x, h_prev, c_prev, i, f, g, o, c_new in reversed(steps):
        tanh_c = np.tanh(c_new)
        dc = dc + dh * o * (1.0 - tanh_c**2)
        dz = np.concatenate(
            [dc * g * i * (1 - i), dc * c_prev * f * (1 - f), dc * i * (1 - g**2),
             dh * tanh_c * o * (1 - o)]
        )
        grads["w_x"] += np.outer(dz, x)
        grads["w_h"] += np.outer(dz, h_prev)
        grads["bias"] += dz
        grads["embedding"][idx] += model.w_x.T @ dz
        dh, dc = model.w_h.T @ dz, dc * f
    return grads


def clipped(grads, clip_norm):
    norm = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    scale = clip_norm / norm if norm > clip_norm else 1.0
    return {name: g * scale for name, g in grads.items()}, norm


@pytest.mark.parametrize("clip_norm", [1e-3, 1e6])
def test_batched_gradient_matches_per_sample_clipped_sum(clip_norm):
    model = LstmModel.init(vocab_size=6, embed_dim=4, hidden_dim=5, seed=4)
    batch = mixed_length_batch()
    expected = {name: np.zeros_like(g) for name, g in model.params().items()}
    norms = []
    for s in batch:
        reference = loop_gradients(model, s)
        alone = analytic_gradients(model, s)  # the batched code on a batch of one
        for name in expected:
            assert np.max(np.abs(alone[name] - reference[name])) <= 1e-12
        one, norm = clipped(reference, clip_norm)
        norms.append(norm)
        for name in expected:
            expected[name] += one[name]
    # the tiny bound clips every sample, the large one none
    assert all(n > clip_norm for n in norms) or all(n < clip_norm for n in norms)
    got = batch_gradients(model, batch, clip_norm)
    for name in expected:
        assert np.max(np.abs(got[name] - expected[name])) <= 1e-12


@pytest.mark.parametrize("clip_norm", [0.0, 0.05])
def test_padding_leaves_sample_gradient_unchanged(clip_norm):
    model = LstmModel.init(vocab_size=6, embed_dim=4, hidden_dim=5, seed=5)
    short = sample_of([3, 1], cutoff=Steps(2), label=1)
    longer = [sample_of([0, 2, 4, 5, 1, 3, 2, 0], label=0), sample_of([5, 5, 1, 0, 4], label=1)]
    alone = batch_gradients(model, [short], clip_norm)
    padded = batch_gradients(model, [short] + longer, clip_norm)
    rest = batch_gradients(model, longer, clip_norm)
    for name in alone:
        assert np.max(np.abs(padded[name] - rest[name] - alone[name])) <= 1e-12


def test_batch_loss_is_mean_of_sample_losses():
    model = LstmModel.init(vocab_size=6, seed=2)
    batch = mixed_length_batch(seed=1)
    singles = [sample_loss(model, s) for s in batch]
    assert sample_loss(model, batch) == pytest.approx(float(np.mean(singles)), abs=1e-12)


@pytest.mark.parametrize("bad", [-1, 4, 9])
def test_out_of_vocab_index_rejected_in_batches(bad):
    model = LstmModel.init(vocab_size=4, seed=0)
    batch = [sample_of([0, 1, 2, 3]), sample_of([1, bad, 2], label=0)]
    with pytest.raises(IndexOutOfVocab):
        lstm_forward(model, batch[1])
    with pytest.raises(IndexOutOfVocab):
        sample_loss(model, batch)
    with pytest.raises(IndexOutOfVocab):
        batch_gradients(model, batch, clip_norm=5.0)


def test_empty_sequence_rejected_in_batches():
    model = LstmModel.init(vocab_size=4, seed=0)
    batch = [sample_of([0, 1, 2]), sample_of([1, 2], cutoff=Duration(0.0), label=0)]
    with pytest.raises(EmptySequence):
        sample_loss(model, batch)
    with pytest.raises(EmptySequence):
        batch_gradients(model, batch)
    with pytest.raises(EmptySequence):
        batch_gradients(model, [])


# ---------------------------------------------------------------------------
# ROC and AUC
# ---------------------------------------------------------------------------


def test_perfect_separation_auc_one():
    roc = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert auc_trapezoid(roc) == 1.0


def test_three_sample_pair_enumeration_case():
    # pairs: (0.9 vs 0.8) win, (0.3 vs 0.8) loss -> AUC 0.5
    scores, labels = [0.9, 0.8, 0.3], [1, 0, 1]
    assert auc_pairs(scores, labels) == 0.5
    assert auc_trapezoid(roc_curve(scores, labels)) == 0.5


def test_all_ties_auc_half():
    scores, labels = [0.7, 0.7, 0.7, 0.7], [1, 0, 1, 0]
    assert auc_pairs(scores, labels) == 0.5
    assert auc_trapezoid(roc_curve(scores, labels)) == 0.5


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(0)
    scores = rng.random(50)
    labels = (rng.random(50) < 0.4).astype(int)
    roc = roc_curve(scores, labels)
    assert roc[0] == (0.0, 0.0) and roc[-1] == (1.0, 1.0)
    xs = [p[0] for p in roc]
    ys = [p[1] for p in roc]
    assert xs == sorted(xs) and ys == sorted(ys)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_trapezoid_equals_pair_enumeration(data):
    n = data.draw(st.integers(4, 60))
    # coarse score grid provokes plenty of ties
    scores = data.draw(
        st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=n, max_size=n)
    )
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if len(set(labels)) < 2:
        labels[0], labels[1] = 0, 1
    trap = auc_trapezoid(roc_curve(scores, labels))
    pairs = auc_pairs(scores, labels)
    assert abs(trap - pairs) <= 1e-12


def test_single_class_rejected():
    with pytest.raises(SingleClass):
        roc_curve([0.1, 0.2], [1, 1])
    with pytest.raises(SingleClass):
        auc_pairs([0.1, 0.2], [0, 0])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_run():
    dataset = separable_toy(n=200, seed=0)
    model, report = lstm_train(dataset, TrainConfig(seed=1))
    return dataset, model, report


def test_separable_toy_reaches_95_accuracy(toy_run):
    _, _, report = toy_run
    assert report.accuracy >= 0.95


def test_training_loss_nonincreasing_on_toy(toy_run):
    _, _, report = toy_run
    losses = report.train_losses
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_training_is_bitwise_deterministic():
    dataset = separable_toy(n=60, seed=3, length=6)
    cfg = TrainConfig(seed=7, epochs=5)
    m1, _ = lstm_train(dataset, cfg)
    m2, _ = lstm_train(dataset, cfg)
    for name in ("embedding", "w_x", "w_h", "bias", "w_out", "b_out"):
        assert np.array_equal(getattr(m1, name), getattr(m2, name))


def test_single_class_dataset_rejected():
    assert SingleClassDataset is SingleClass
    dataset = [s for s in separable_toy(n=40, seed=2) if s.label == 1]
    with pytest.raises(SingleClassDataset):
        lstm_train(dataset, TrainConfig())


def test_lead_time_nonnegative(toy_run):
    dataset, model, report = toy_run
    assert report.mean_lead_time >= 0
    assert report.mean_detection_time > 0


def test_model_file_round_trip(tmp_path, toy_run):
    _, model, _ = toy_run
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = LstmModel.load(path)
    for name in ("embedding", "w_x", "w_h", "bias", "w_out", "b_out"):
        assert np.array_equal(getattr(model, name), getattr(loaded, name))
    probe = sample_of([1, 2, 3])
    assert lstm_forward(model, probe) == lstm_forward(loaded, probe)


# ---------------------------------------------------------------------------
# samples and sweeps
# ---------------------------------------------------------------------------


def test_make_samples_maps_traces():
    trace = ConnectionTrace(
        states=(("a", 10_000_000), ("b", 20_000_000), ("a", 30_000_000)),
        outcome="Failed",
        outcome_time=50_000_000,
    )
    samples, vocab = make_samples([trace], Steps(2))
    assert vocab == ["a", "b"]
    assert samples[0].states == (0, 1, 0)
    assert samples[0].label == 1
    assert samples[0].timestamps[0] == 0.0
    assert samples[0].outcome_time == pytest.approx(0.04)


def test_cutoff_sweep_flags_degenerate_and_reports_metrics():
    traces, _ = generate_dataset(seed=5)
    subset = traces[:80]
    rows = cutoff_sweep(subset, [Duration(0.0), Steps(4)], TrainConfig(seed=0, epochs=4))
    assert rows[0]["cutoff"] == "duration:0.0"
    assert "skipped" in rows[0]
    assert rows[1]["cutoff"] == "steps:4"
    assert 0.0 <= rows[1]["auc"] <= 1.0


def test_more_steps_never_hurt_on_toy():
    dataset_short = separable_toy(n=120, seed=4, cutoff=Steps(1))
    dataset_full = separable_toy(n=120, seed=4, cutoff=Steps(10))
    cfg = TrainConfig(seed=2, epochs=10)
    _, short_report = lstm_train(dataset_short, cfg)
    _, full_report = lstm_train(dataset_full, cfg)
    assert full_report.auc >= short_report.auc
