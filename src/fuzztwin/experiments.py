"""Scaled scheduling experiments on the simulated command alphabet.

Reproduces the efficiency comparison between uniform-random and
probability-scheduled command fuzzing: identical seeds and vulnerability
profiles, campaigns run until every planted vulnerability is found, medians
and averaged discovery curves reported. The prior-knowledge variant seeds
two known vulnerable pairs with one failure update each before the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import SimulatedTarget, random_campaign, syal_campaign
from .twin import VulnerabilityProfile


@dataclass
class BenchmarkResult:
    n_commands: int
    n_vulns: int
    clustering: str
    alpha: float
    ratio: float
    seeds: list
    random_cases: list = field(default_factory=list)
    syal_cases: list = field(default_factory=list)
    seeded_cases: list = field(default_factory=list)
    random_curves: list = field(default_factory=list)
    syal_curves: list = field(default_factory=list)
    syal_first5: list = field(default_factory=list)
    seeded_first5: list = field(default_factory=list)

    def medians(self) -> dict:
        med = lambda xs: float(np.median(xs)) if xs else float("nan")
        return {
            "random_cases": med(self.random_cases),
            "syal_cases": med(self.syal_cases),
            "seeded_cases": med(self.seeded_cases),
            "syal_first5": med(self.syal_first5),
            "seeded_first5": med(self.seeded_first5),
        }

    def as_dict(self) -> dict:
        return {
            "n_commands": self.n_commands,
            "n_vulns": self.n_vulns,
            "clustering": self.clustering,
            "alpha": self.alpha,
            "ratio": self.ratio,
            "seeds": list(self.seeds),
            "medians": self.medians(),
            "random_cases": self.random_cases,
            "syal_cases": self.syal_cases,
            "seeded_cases": self.seeded_cases,
            "syal_first5": self.syal_first5,
            "seeded_first5": self.seeded_first5,
        }


def cases_to_first(curve, k: int):
    for cases, found in curve:
        if found >= k:
            return cases
    return None


def aligned_mean_curve(curves) -> list[tuple[int, float]]:
    """Average curves re-indexed to cases since each run's first discovery.

    Aligning at the discovery onset removes the spread of first-find times
    across seeds, which otherwise flattens the averaged shape; the result is
    the representative discovery track of the strategy.
    """
    aligned = []
    for curve in curves:
        first = cases_to_first(curve, 1)
        if first is None:
            continue
        aligned.append([(i - first + 1, y) for i, y in curve if i >= first])
    if not aligned:
        return []
    horizon = min(len(a) for a in aligned)
    return [(k + 1, float(np.mean([a[k][1] for a in aligned]))) for k in range(horizon)]


def syal_vs_random_benchmark(
    n_commands: int = 30,
    n_vulns: int = 12,
    clustering: str = "row_clustered",
    seeds=range(20),
    alpha: float = 0.5,
    ratio: float = 0.1,
    p_min: float = 0.01,
    p0: float = 0.05,
    update_scope: str = "row_column",
    profile_seed: int = 0,
    with_prior_knowledge: bool = True,
) -> BenchmarkResult:
    """Both strategies on identical seeds and profile, until all found.

    p0 defaults to 0.05 here rather than the engine's 0.5: the priority
    ceiling at 1.0 leaves a low prior twenty-fold headroom for failure
    boosts to compound, which the scheduling comparison is about.
    """
    commands = [f"cmd{i:02d}" for i in range(n_commands)]
    profile = VulnerabilityProfile.generate(commands, n_vulns, clustering, profile_seed)
    target = SimulatedTarget(commands, profile)
    result = BenchmarkResult(
        n_commands=n_commands,
        n_vulns=n_vulns,
        clustering=clustering,
        alpha=alpha,
        ratio=ratio,
        seeds=list(seeds),
    )
    vuln_pairs = sorted(profile.pairs)
    for seed in seeds:
        r_random = random_campaign(target, seed=seed, stop_after_found=n_vulns)
        result.random_cases.append(r_random.cases_run)
        result.random_curves.append(r_random.found_curve)

        r_syal, _ = syal_campaign(
            target,
            alpha=alpha,
            ratio=ratio,
            p_min=p_min,
            p0=p0,
            update_scope=update_scope,
            seed=seed,
            stop_after_found=n_vulns,
        )
        result.syal_cases.append(r_syal.cases_run)
        result.syal_curves.append(r_syal.found_curve)
        result.syal_first5.append(cases_to_first(r_syal.found_curve, 5))

        if with_prior_knowledge:
            rng = np.random.default_rng(10_000 + seed)
            picks = rng.choice(len(vuln_pairs), size=2, replace=False)
            prior = [vuln_pairs[int(i)] for i in picks]
            r_seeded, _ = syal_campaign(
                target,
                alpha=alpha,
                ratio=ratio,
                p_min=p_min,
                p0=p0,
                update_scope=update_scope,
                seed=seed,
                stop_after_found=n_vulns - len(prior),
                prior_pairs=prior,
            )
            result.seeded_cases.append(r_seeded.cases_run)
            result.seeded_first5.append(cases_to_first(r_seeded.found_curve, 5))
    return result


def hyperparameter_sweep(
    alphas=(0.1, 0.5, 1.0, 2.0),
    ratios=(0.1, 0.5, 0.9),
    seeds=range(5),
    n_commands: int = 30,
    n_vulns: int = 12,
    clustering: str = "row_clustered",
    profile_seed: int = 0,
) -> list[dict]:
    """Median cases-to-find-all for every (alpha, ratio) combination."""
    commands = [f"cmd{i:02d}" for i in range(n_commands)]
    profile = VulnerabilityProfile.generate(commands, n_vulns, clustering, profile_seed)
    target = SimulatedTarget(commands, profile)
    rows = []
    for alpha in alphas:
        for ratio in ratios:
            cases = []
            for seed in seeds:
                r, _ = syal_campaign(
                    target, alpha=alpha, ratio=ratio, seed=seed, stop_after_found=n_vulns
                )
                cases.append(r.cases_run)
            rows.append(
                {
                    "alpha": alpha,
                    "ratio": ratio,
                    "median_cases": float(np.median(cases)),
                    "max_cases": int(max(cases)),
                    "completed": len(cases),
                }
            )
    return rows
