"""Risk analysis over stored connection traces.

Builds the state-transaction graph (states as vertices, consecutive state
pairs as edges, counts split by connection outcome), extracts high-risk
states and transactions, evaluates the rule-based failure predictor, and
fits cumulative vulnerability-detection curves with a linear and an
exponential model compared by R-squared in the original y space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class AnalyzerError(Exception):
    pass


class EmptyInput(AnalyzerError):
    pass


class NoFailedTraces(AnalyzerError):
    pass


class DegenerateInput(AnalyzerError):
    pass


class NonPositiveValues(AnalyzerError):
    pass


@dataclass
class TransitionGraph:
    vertices: set = field(default_factory=set)
    edges: dict = field(default_factory=dict)  # (a, b) -> [success_count, failed_count]
    state_counts: dict = field(default_factory=dict)  # sid -> [success_count, failed_count]

    def edge_counts(self, edge):
        return tuple(self.edges.get(edge, (0, 0)))

    def to_dot(self) -> bytes:
        """Graphviz digraph, vertices and edges sorted, edges labelled
        ``fail:F succ:S``."""
        lines = ["digraph transactions {"]
        lines.extend(f'  "{v}";' for v in sorted(self.vertices))
        for (a, b), (succ, fail) in sorted(self.edges.items()):
            lines.append(f'  "{a}" -> "{b}" [label="fail:{fail} succ:{succ}"];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()


def build_graph(traces) -> TransitionGraph:
    """Count states and transitions, partitioned by trace outcome."""
    traces = list(traces)
    if not traces:
        raise EmptyInput("no traces to analyze")
    graph = TransitionGraph()
    for trace in traces:
        slot = 0 if trace.outcome == "Success" else 1
        seq = trace.state_sequence()
        for sid in seq:
            graph.vertices.add(sid)
            graph.state_counts.setdefault(sid, [0, 0])[slot] += 1
        for edge in zip(seq, seq[1:]):
            graph.edges.setdefault(edge, [0, 0])[slot] += 1
    return graph


def high_risk_states(graph: TransitionGraph) -> set:
    """States whose occurrence count in failed connections strictly exceeds
    the mean failed-count over all observed states."""
    failed_counts = {sid: counts[1] for sid, counts in graph.state_counts.items()}
    if not any(failed_counts.values()):
        raise NoFailedTraces("no failed-connection occurrences recorded")
    mean = sum(failed_counts.values()) / len(failed_counts)
    return {sid for sid, count in failed_counts.items() if count > mean}


def high_risk_transactions(graph: TransitionGraph, max_success_occurrences: int = 1) -> set:
    """Edges seen in failed connections and at most ``max_success_occurrences``
    times in successful ones (default 1, tolerating a single stray success)."""
    out = set()
    for edge, (succ, fail) in graph.edges.items():
        if fail >= 1 and succ <= max_success_occurrences:
            out.add(edge)
    return out


def rule_predict(trace, hr_transactions) -> str:
    """Failed iff the trace contains at least one high-risk transaction."""
    for edge in trace.transitions():
        if edge in hr_transactions:
            return "Failed"
    return "Success"


@dataclass
class RiskReport:
    high_risk_states: set
    high_risk_transactions: set
    rule_recall: float
    rule_precision: float
    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int
    mode: str  # "resubstitution" | "split"

    def as_dict(self) -> dict:
        return {
            "high_risk_states": sorted(self.high_risk_states),
            "high_risk_transactions": [list(e) for e in sorted(self.high_risk_transactions)],
            "rule_recall": self.rule_recall,
            "rule_precision": self.rule_precision,
            "confusion": {
                "tp": self.true_positives,
                "fp": self.false_positives,
                "tn": self.true_negatives,
                "fn": self.false_negatives,
            },
            "mode": self.mode,
        }


def evaluate_rule(
    traces,
    *,
    mode: str = "resubstitution",
    split_fraction: float = 0.5,
    seed: int = 0,
    max_success_occurrences: int = 1,
) -> RiskReport:
    """Extract high-risk rules and score the rule-based predictor.

    resubstitution evaluates on the training traces themselves (flagged in
    the report); split holds out ``1 - split_fraction`` of the traces.
    """
    traces = list(traces)
    if not traces:
        raise EmptyInput("no traces to evaluate")
    if mode == "resubstitution":
        train = eval_set = traces
    elif mode == "split":
        import random as _random

        order = list(range(len(traces)))
        _random.Random(seed).shuffle(order)
        cut = max(1, int(len(traces) * split_fraction))
        train = [traces[i] for i in order[:cut]]
        eval_set = [traces[i] for i in order[cut:]] or train
    else:
        raise ValueError(f"unknown mode {mode!r}")

    graph = build_graph(train)
    hr_states = high_risk_states(graph) if any(c[1] for c in graph.state_counts.values()) else set()
    hr_transactions = high_risk_transactions(graph, max_success_occurrences)

    tp = fp = tn = fn = 0
    for trace in eval_set:
        predicted = rule_predict(trace, hr_transactions)
        actual = trace.outcome
        if actual == "Failed":
            if predicted == "Failed":
                tp += 1
            else:
                fn += 1
        else:
            if predicted == "Failed":
                fp += 1
            else:
                tn += 1
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    return RiskReport(
        high_risk_states=hr_states,
        high_risk_transactions=hr_transactions,
        rule_recall=recall,
        rule_precision=precision,
        true_positives=tp,
        false_positives=fp,
        true_negatives=tn,
        false_negatives=fn,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# curve fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveFit:
    model: str  # "linear" | "exponential"
    params: tuple  # (slope, intercept) or (scale, rate)
    r_squared: float

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        if self.model == "linear":
            slope, intercept = self.params
            return slope * x + intercept
        scale, rate = self.params
        return scale * np.exp(rate * x)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    x_mean, y_mean = x.mean(), y.mean()
    var = ((x - x_mean) ** 2).sum()
    if var == 0.0:
        raise DegenerateInput("constant x values")
    slope = ((x - x_mean) * (y - y_mean)).sum() / var
    return float(slope), float(y_mean - slope * x_mean)


def _r_squared(y: np.ndarray, predicted: np.ndarray) -> float:
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_curve(points, model: str) -> CurveFit:
    """Least-squares fit of (i, cumulative found) points.

    Linear is ordinary least squares. Exponential is least squares on
    log-transformed values, back-transformed; R-squared is computed in the
    original y space for both so the two models are directly comparable.
    """
    pts = [(float(i), float(y)) for i, y in points]
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 points")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if model == "linear":
        slope, intercept = _ols(x, y)
        fit = CurveFit("linear", (slope, intercept), 0.0)
    elif model == "exponential":
        if np.any(y <= 0):
            raise NonPositiveValues("exponential model needs positive values")
        log_slope, log_intercept = _ols(x, np.log(y))
        fit = CurveFit("exponential", (float(math.exp(log_intercept)), log_slope), 0.0)
    else:
        raise ValueError(f"unknown model {model!r}")
    return CurveFit(fit.model, fit.params, _r_squared(y, fit.predict(x)))


def fit_found_curve(found_curve, model: str, first_fraction: float = 1.0) -> CurveFit:
    """Fit a campaign's cumulative curve, restricted to an initial fraction
    and to strictly positive counts so both models see the same points."""
    cut = max(3, int(len(found_curve) * first_fraction))
    pts = [(i, y) for i, y in found_curve[:cut] if y > 0]
    return fit_curve(pts, model)
