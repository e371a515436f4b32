"""LSTM failure predictor over truncated state sequences.

A single-layer LSTM with an embedding front end and a sigmoid readout on
the final hidden state, trained by full backpropagation through time with
plain gradient descent on sum-reduced binary cross entropy per batch.

Each training batch runs as one vectorised forward and backward pass.
Sequences are right-padded to the batch's longest truncated length; past a
sample's end a mask keeps its h and c (forward) and dh and dc (backward)
unchanged, so padding adds nothing to its gradient. Each sample's gradient
set is clipped to ``clip_norm`` on its own before the sum, its norm taken
from per-sample Gram matrices of the batched terms. The same code run on a batch of one
gives ``lstm_forward``, ``sample_loss`` and ``analytic_gradients``, which
``gradient_check`` compares with finite differences. Everything is float64
numpy and deterministic for a fixed seed: fixed initialisation, fixed
shuffles.

Cut-off semantics: a Steps(n) sample keeps the first n states, a
Duration(t) sample keeps states whose trace-relative timestamp is below t
seconds. The detection time of a sample is the timestamp of the last state
the model is allowed to see, and lead time is the gap from there to the
connection outcome.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np


class PredictorError(Exception):
    pass


class EmptySequence(PredictorError):
    pass


class IndexOutOfVocab(PredictorError):
    pass


class SingleClass(PredictorError):
    """The data holds only one outcome class."""


SingleClassDataset = SingleClass  # earlier name, kept for imports


MODEL_MAGIC = b"FZLM"
MODEL_VERSION = 1


@dataclass(frozen=True)
class Steps:
    n: int

    def __str__(self):
        return f"steps:{self.n}"


@dataclass(frozen=True)
class Duration:
    seconds: float

    def __str__(self):
        return f"duration:{self.seconds}"


@dataclass(frozen=True)
class SequenceSample:
    states: tuple  # full state-index sequence
    timestamps: tuple  # trace-relative seconds, one per state
    label: int  # 1 = Failed, 0 = Success
    cutoff: object  # Steps | Duration
    outcome_time: float  # trace-relative seconds


def truncate_indices(sample: SequenceSample) -> list[int]:
    if isinstance(sample.cutoff, Steps):
        return list(sample.states[: sample.cutoff.n])
    kept = [i for i, t in zip(sample.states, sample.timestamps) if t < sample.cutoff.seconds]
    return kept


def detection_time(sample: SequenceSample) -> float:
    """Timestamp of the last state the truncated model input contains."""
    if isinstance(sample.cutoff, Steps):
        kept = sample.timestamps[: sample.cutoff.n]
    else:
        kept = [t for t in sample.timestamps if t < sample.cutoff.seconds]
    if not kept:
        raise EmptySequence("cutoff leaves no states")
    return float(kept[-1])


def make_samples(traces, cutoff, vocab=None):
    """Turn stored traces into model samples; returns (samples, vocab)."""
    traces = list(traces)
    if vocab is None:
        vocab = sorted({sid for t in traces for sid, _ in t.states})
    index = {sid: i for i, sid in enumerate(vocab)}
    samples = []
    for t in traces:
        t0 = t.states[0][1] if t.states else 0
        rel = [(ts - t0) / 1e9 for _, ts in t.states]
        samples.append(
            SequenceSample(
                states=tuple(index[sid] for sid, _ in t.states),
                timestamps=tuple(rel),
                label=1 if t.outcome == "Failed" else 0,
                cutoff=cutoff,
                outcome_time=(t.outcome_time - t0) / 1e9,
            )
        )
    return samples, vocab


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

PARAM_NAMES = ("embedding", "w_x", "w_h", "bias", "w_out", "b_out")


@dataclass
class LstmModel:
    vocab_size: int
    embed_dim: int
    hidden_dim: int
    embedding: np.ndarray  # (V, E)
    w_x: np.ndarray  # (4H, E), gate order input/forget/cell/output
    w_h: np.ndarray  # (4H, H)
    bias: np.ndarray  # (4H,)
    w_out: np.ndarray  # (H,)
    b_out: np.ndarray  # (1,)

    # Init scales are calibrated so that plain gradient descent makes real
    # progress within a 30-epoch budget at the default 1e-3 learning rate:
    # unit-scale embeddings and readout keep the end-to-end gradient path
    # from vanishing through the two small linear maps.
    EMBED_SCALE = 1.0
    INPUT_SCALE = 0.3
    RECURRENT_SCALE = 0.18
    READOUT_SCALE = 1.0
    FORGET_BIAS = 1.0

    @classmethod
    def init(cls, vocab_size: int, embed_dim: int = 16, hidden_dim: int = 32, seed: int = 0):
        rng = np.random.default_rng(seed)
        model = cls(
            vocab_size=vocab_size,
            embed_dim=embed_dim,
            hidden_dim=hidden_dim,
            embedding=rng.uniform(-cls.EMBED_SCALE, cls.EMBED_SCALE, (vocab_size, embed_dim)),
            w_x=rng.uniform(-cls.INPUT_SCALE, cls.INPUT_SCALE, (4 * hidden_dim, embed_dim)),
            w_h=rng.uniform(
                -cls.RECURRENT_SCALE, cls.RECURRENT_SCALE, (4 * hidden_dim, hidden_dim)
            ),
            bias=np.zeros(4 * hidden_dim),
            w_out=rng.uniform(-cls.READOUT_SCALE, cls.READOUT_SCALE, hidden_dim),
            b_out=np.zeros(1),
        )
        # an open forget gate lets early states survive to the readout
        model.bias[hidden_dim : 2 * hidden_dim] = cls.FORGET_BIAS
        return model

    @classmethod
    def zeros(cls, vocab_size: int, embed_dim: int = 16, hidden_dim: int = 32):
        return cls(
            vocab_size=vocab_size,
            embed_dim=embed_dim,
            hidden_dim=hidden_dim,
            embedding=np.zeros((vocab_size, embed_dim)),
            w_x=np.zeros((4 * hidden_dim, embed_dim)),
            w_h=np.zeros((4 * hidden_dim, hidden_dim)),
            bias=np.zeros(4 * hidden_dim),
            w_out=np.zeros(hidden_dim),
            b_out=np.zeros(1),
        )

    def params(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "LstmModel":
        return LstmModel(
            self.vocab_size,
            self.embed_dim,
            self.hidden_dim,
            *(getattr(self, name).copy() for name in PARAM_NAMES),
        )

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(
                struct.pack(
                    "<IIII", MODEL_VERSION, self.vocab_size, self.embed_dim, self.hidden_dim
                )
            )
            for name in PARAM_NAMES:
                fh.write(np.ascontiguousarray(getattr(self, name), dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "LstmModel":
        with open(path, "rb") as fh:
            if fh.read(4) != MODEL_MAGIC:
                raise PredictorError("not a model file")
            version, vocab, embed, hidden = struct.unpack("<IIII", fh.read(16))
            if version != MODEL_VERSION:
                raise PredictorError(f"unsupported model version {version}")
            model = cls.zeros(vocab, embed, hidden)
            for name in PARAM_NAMES:
                shape = getattr(model, name).shape
                count = int(np.prod(shape))
                data = np.frombuffer(fh.read(count * 8), dtype="<f8").reshape(shape)
                setattr(model, name, data.copy())
        return model


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _pad(model: LstmModel, samples):
    """Truncated state indices of a batch, right-padded with index 0.

    Returns (indices (B, T), lengths (B,), labels (B,)) with T the longest
    truncated length in the batch.
    """
    sequences = [truncate_indices(s) for s in samples]
    lengths = np.array([len(q) for q in sequences], dtype=np.intp)
    if len(sequences) == 0 or not lengths.all():
        raise EmptySequence("empty input after truncation")
    indices = np.zeros((len(sequences), int(lengths.max())), dtype=np.int64)
    for row, sequence in zip(indices, sequences):
        row[: len(sequence)] = sequence
    # checked here: numpy indexing would wrap a negative index silently
    bad = (indices < 0) | (indices >= model.vocab_size)
    if bad.any():
        raise IndexOutOfVocab(f"state index {int(indices[bad][0])} outside vocabulary")
    labels = np.array([float(s.label) for s in samples])
    return indices, lengths, labels


def _forward(model: LstmModel, indices, lengths, cache=None):
    """Run the cell over a padded batch; returns (logits (B,), h (B, H)).

    Past a sample's length its h and c stay as they were, so the readout
    sees each sample's own last state. With ``cache`` (a list) each step's
    (h_prev, c_prev, gates, g, c_new) is appended to it for BPTT, where
    gates is the sigmoid of all four pre-activations (i, f, o are used).
    """
    hidden = model.hidden_dim
    h = np.zeros((len(indices), hidden))
    c = np.zeros((len(indices), hidden))
    w_x_t, w_h_t = model.w_x.T, model.w_h.T
    shortest = lengths.min()
    for t in range(indices.shape[1]):
        # per step, so a loss pass over a whole split holds O(B * 4H) floats
        z = model.embedding[indices[:, t]] @ w_x_t
        z += h @ w_h_t
        z += model.bias
        gates = _sigmoid(z)
        i, f, o = gates[:, :hidden], gates[:, hidden : 2 * hidden], gates[:, 3 * hidden :]
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        if cache is not None:
            cache.append((h, c, gates, g, c_new))
        if t < shortest:
            h, c = h_new, c_new
        else:
            live = (t < lengths)[:, None]
            h = np.where(live, h_new, h)
            c = np.where(live, c_new, c)
    return h @ model.w_out + model.b_out[0], h


def _gram(a):
    """Per-sample inner products of the step vectors of a (B, T, K) array."""
    return a @ a.transpose(0, 2, 1)


def lstm_forward(model: LstmModel, sample: SequenceSample) -> float:
    """Probability that the connection fails, on the truncated prefix."""
    indices, lengths, _ = _pad(model, [sample])
    logits, _ = _forward(model, indices, lengths)
    return float(_sigmoid(logits)[0])


def sample_loss(model: LstmModel, samples) -> float:
    """Mean BCE over one sample or a sequence of samples (no BPTT cache)."""
    if isinstance(samples, SequenceSample):
        samples = [samples]
    indices, lengths, labels = _pad(model, samples)
    logits, _ = _forward(model, indices, lengths)
    # stable BCE from the logit
    losses = np.maximum(logits, 0.0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
    return float(np.mean(losses))


def _batch_gradients(model: LstmModel, indices, lengths, labels, clip_norm: float) -> dict:
    """Summed d(BCE)/d(theta) of a padded batch by BPTT.

    With clip_norm > 0 each sample's gradient set is scaled down to
    clip_norm before the sum, so one sequence cannot blow up the batch
    while the batch step keeps its natural magnitude. Working memory is
    O(B * T * (4H + E)) floats, plus O(B * T * T) when clipping, and does
    not grow with the vocabulary.
    """
    hidden = model.hidden_dim
    batch_size, steps = indices.shape
    cache = []
    logits, h_last = _forward(model, indices, lengths, cache)
    d_logit = _sigmoid(logits) - labels  # d(BCE)/d(logit)
    dh = d_logit[:, None] * model.w_out
    dc = np.zeros_like(dh)
    dz = np.zeros((batch_size, steps, 4 * hidden))  # stays 0 past each length
    shortest = lengths.min()
    for t in range(steps - 1, -1, -1):
        _, c_prev, gates, g, c_new = cache[t]
        i, f, o = gates[:, :hidden], gates[:, hidden : 2 * hidden], gates[:, 3 * hidden :]
        tanh_c = np.tanh(c_new)
        dc_t = dc + dh * o * (1.0 - tanh_c**2)
        dz_t = dz[:, t]
        dz_t[:, :hidden] = dc_t * g * i * (1.0 - i)
        dz_t[:, hidden : 2 * hidden] = dc_t * c_prev * f * (1.0 - f)
        dz_t[:, 2 * hidden : 3 * hidden] = dc_t * i * (1.0 - g**2)
        dz_t[:, 3 * hidden :] = dh * tanh_c * o * (1.0 - o)
        if t < shortest:
            dh, dc = dz_t @ model.w_h, dc_t * f
        else:
            live = (t < lengths)[:, None]
            dz_t *= live
            dh = np.where(live, dz_t @ model.w_h, dh)
            dc = np.where(live, dc_t * f, dc)
    inputs = model.embedding[indices]  # (B, T, E)
    h_prev = np.stack([step[0] for step in cache], axis=1)  # (B, T, H)
    d_inputs = dz @ model.w_x  # (B, T, E)

    scale = np.ones(batch_size)
    if clip_norm > 0:
        # squared norm of sum_t dz_t (x) v_t is sum_{t,s} (dz_t . dz_s)(v_t . v_s),
        # so (B, T, T) Gram matrices give each sample's norm without
        # per-sample weight gradients; the embedding rows of a sample add up
        # the steps that share a state index
        same = indices[:, :, None] == indices[:, None, :]
        squares = (
            _gram(dz) * (_gram(inputs) + _gram(h_prev) + 1.0)  # w_x, w_h, bias
            + same * _gram(d_inputs)  # embedding
        ).sum(axis=(1, 2)) + d_logit**2 * ((h_last**2).sum(axis=1) + 1.0)  # w_out, b_out
        norms = np.sqrt(squares)
        # the maximum only keeps a zero norm from being divided by
        scale = np.where(norms > clip_norm, clip_norm / np.maximum(norms, clip_norm), 1.0)
    dz = (dz * scale[:, None, None]).reshape(-1, 4 * hidden)
    d_logit = d_logit * scale
    embedding = np.zeros_like(model.embedding)  # padded steps add zeros to row 0
    np.add.at(
        embedding,
        indices.reshape(-1),
        (d_inputs * scale[:, None, None]).reshape(-1, model.embed_dim),
    )
    return {
        "embedding": embedding,
        "w_x": dz.T @ inputs.reshape(-1, model.embed_dim),
        "w_h": dz.T @ h_prev.reshape(-1, hidden),
        "bias": dz.sum(axis=0),
        "w_out": d_logit @ h_last,
        "b_out": np.array([d_logit.sum()]),
    }


def batch_gradients(model: LstmModel, samples, clip_norm: float = 0.0) -> dict:
    """Sum over ``samples`` of each sample's (clipped) loss gradient."""
    return _batch_gradients(model, *_pad(model, samples), clip_norm)


def analytic_gradients(model: LstmModel, sample: SequenceSample) -> dict:
    return batch_gradients(model, [sample])


def central_difference(fn, array: np.ndarray, epsilon: float) -> np.ndarray:
    """Two-sided finite differences of scalar ``fn`` w.r.t. every entry,
    perturbing the array in place and restoring it."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    flat_grad = grad.reshape(-1)
    for k in range(flat.size):
        original = flat[k]
        flat[k] = original + epsilon
        plus = fn()
        flat[k] = original - epsilon
        minus = fn()
        flat[k] = original
        flat_grad[k] = (plus - minus) / (2.0 * epsilon)
    return grad


def numeric_gradients(model: LstmModel, sample: SequenceSample, epsilon: float) -> dict:
    """Central finite differences of the loss over every parameter."""
    work = model.copy()
    loss = lambda: sample_loss(work, sample)
    return {
        name: central_difference(loss, getattr(work, name), epsilon) for name in PARAM_NAMES
    }


def max_relative_error(grads_a: dict, grads_b: dict) -> float:
    worst = 0.0
    for name in PARAM_NAMES:
        a = grads_a[name].reshape(-1)
        b = grads_b[name].reshape(-1)
        denom = np.abs(a) + np.abs(b) + 1e-8
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def gradient_check(model: LstmModel, sample: SequenceSample, epsilon: float = 1e-5) -> float:
    """Max relative disagreement between BPTT and finite differences."""
    return max_relative_error(
        analytic_gradients(model, sample), numeric_gradients(model, sample, epsilon)
    )


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------


def roc_curve(scores, labels) -> list[tuple[float, float]]:
    """Threshold sweep over distinct scores, ties grouped; (fpr, tpr) points."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    positives = int(labels.sum())
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        raise SingleClass("ROC needs both classes")
    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    k = 0
    while k < len(order):
        score = scores[order[k]]
        while k < len(order) and scores[order[k]] == score:
            if labels[order[k]] == 1:
                tp += 1
            else:
                fp += 1
            k += 1
        points.append((fp / negatives, tp / positives))
    return points


def auc_trapezoid(points) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return float(area)


def auc_pairs(scores, labels) -> float:
    """Pair-enumeration AUC: wins plus half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise SingleClass("AUC needs both classes")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 30
    batches_per_epoch: int = 10
    test_fraction: float = 0.20
    seed: int = 0
    embed_dim: int = 16
    hidden_dim: int = 32
    clip_norm: float = 5.0


@dataclass
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    roc: list
    auc: float
    mean_detection_time: float
    mean_lead_time: float
    train_losses: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "auc": self.auc,
            "roc": [list(p) for p in self.roc],
            "mean_detection_time": self.mean_detection_time,
            "mean_lead_time": self.mean_lead_time,
            "train_losses": self.train_losses,
        }


def _split(dataset, fraction: float, rng: np.random.Generator):
    order = rng.permutation(len(dataset))
    n_test = max(1, int(round(len(dataset) * fraction)))
    test_idx = set(int(i) for i in order[:n_test])
    train = [dataset[i] for i in range(len(dataset)) if i not in test_idx]
    test = [dataset[int(i)] for i in order[:n_test]]
    return train, test


def evaluate(model: LstmModel, samples) -> EvalReport:
    scores = np.array([lstm_forward(model, s) for s in samples])
    labels = np.array([s.label for s in samples])
    predicted = (scores >= 0.5).astype(int)
    accuracy = float((predicted == labels).mean())
    tp = int(((predicted == 1) & (labels == 1)).sum())
    fp = int(((predicted == 1) & (labels == 0)).sum())
    fn = int(((predicted == 0) & (labels == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    roc = roc_curve(scores, labels)
    auc = auc_trapezoid(roc)
    detections = [detection_time(s) for s in samples]
    mean_detection = float(np.mean(detections)) if detections else 0.0
    leads = [
        s.outcome_time - detection_time(s)
        for s, pred in zip(samples, predicted)
        if s.label == 1 and pred == 1
    ]
    mean_lead = float(np.mean(leads)) if leads else 0.0
    return EvalReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        roc=roc,
        auc=auc,
        mean_detection_time=mean_detection,
        mean_lead_time=mean_lead,
    )


def lstm_train(dataset, config: TrainConfig):
    """Train on a held-out split; returns (model, EvalReport on test data)."""
    dataset = [s for s in dataset if truncate_indices(s)]
    if len(dataset) < 2:
        raise EmptySequence("dataset empty after truncation")
    labels = {s.label for s in dataset}
    if len(labels) < 2:
        raise SingleClass("need both outcomes to train")
    vocab_size = max(max(s.states) for s in dataset) + 1
    rng = np.random.default_rng(config.seed)
    train, test = _split(dataset, config.test_fraction, rng)
    if {s.label for s in train} != {0, 1} or {s.label for s in test} != {0, 1}:
        # deterministic fallback: re-split with stratified interleave
        by_label = {0: [], 1: []}
        for s in dataset:
            by_label[s.label].append(s)
        train, test = [], []
        for group in by_label.values():
            n_test = max(1, int(round(len(group) * config.test_fraction)))
            test.extend(group[:n_test])
            train.extend(group[n_test:])
    model = LstmModel.init(vocab_size, config.embed_dim, config.hidden_dim, seed=config.seed)
    batch_size = max(1, math.ceil(len(train) / config.batches_per_epoch))
    indices, lengths, train_labels = _pad(model, train)
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), batch_size):
            rows = order[start : start + batch_size]
            steps = int(lengths[rows].max())
            grads = _batch_gradients(
                model, indices[rows, :steps], lengths[rows], train_labels[rows], config.clip_norm
            )
            for name in PARAM_NAMES:
                getattr(model, name)[...] -= config.learning_rate * grads[name]
        losses.append(sample_loss(model, train))
    report = evaluate(model, test)
    report.train_losses = losses
    return model, report


def cutoff_sweep(dataset_traces, cutoffs, config: TrainConfig):
    """Train and evaluate once per cutoff with identical seeds.

    Returns a list of dict rows; degenerate cutoffs (no sample survives
    truncation) are flagged and skipped.
    """
    rows = []
    for cutoff in cutoffs:
        samples, _ = make_samples(dataset_traces, cutoff)
        usable = [s for s in samples if truncate_indices(s)]
        if not usable:
            rows.append({"cutoff": str(cutoff), "skipped": "empty sequences"})
            continue
        _, report = lstm_train(usable, config)
        rows.append(
            {
                "cutoff": str(cutoff),
                "accuracy": report.accuracy,
                "auc": report.auc,
                "mean_detection_time": report.mean_detection_time,
                "mean_lead_time": report.mean_lead_time,
            }
        )
    return rows
