"""Statistical equivalence of the throughput tier against the exact tier.

The throughput precision tier (``MSROPMConfig.precision = "throughput"``)
deliberately breaks the bit-identity contract — float32 state, one batched
noise stream for all replicas, two-point ``+-1`` increments — in
exchange for speed.  The claim that justifies it is *statistical* rather
than bitwise: over an ensemble of runs, the accuracy distribution it
produces is indistinguishable from the exact tier's.  This module is the
harness that checks that claim.

For each requested workload family the harness runs matched ensembles —
the same instances, iteration counts and base seeds — once per tier, pools
the per-iteration accuracies by family, and compares the two samples with

* a two-sample Kolmogorov–Smirnov test (distribution shape), and
* a seeded bootstrap confidence interval of the mean-accuracy difference
  (a TOST-style equivalence check: the CI must sit inside ``±tolerance``).

A family passes when the KS test does not reject at ``alpha`` *and* the
bootstrap CI lies within the equivalence margin.  Both ensembles route
through the experiment runtime, so the exact half of a harness run is
cache-shared with every other exact-tier experiment at the same seeds.

``msropm equivalence`` is the CLI entry; CI runs it at reduced scale on two
zoo families.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.analysis.reporting import format_table
from repro.core.config import MSROPMConfig
from repro.experiments.problems import default_config
from repro.experiments.scenario_matrix import plan_scenario_requests
from repro.runtime.runner import ExperimentRunner, SolveRequest
from repro.workloads.registry import expand_workloads

#: Families the harness compares by default: two independent random-graph
#: ensembles with very different degree structure.
DEFAULT_EQUIVALENCE_FAMILIES = ("er", "regular")

#: KS rejection level.  Deliberately strict-to-*reject* (small alpha): the
#: harness fails only on strong evidence the distributions differ.
DEFAULT_ALPHA = 0.01

#: Equivalence margin on the mean accuracy difference.  The bootstrap CI of
#: ``mean(throughput) - mean(exact)`` must sit inside ``±tolerance``.
DEFAULT_TOLERANCE = 0.05

#: Bootstrap resamples of the mean difference.
DEFAULT_BOOTSTRAP_SAMPLES = 2000


@dataclass(frozen=True)
class EquivalenceRow:
    """One family's exact-vs-throughput comparison."""

    family: str
    num_instances: int
    sample_size: int
    exact_mean: float
    throughput_mean: float
    mean_diff: float
    ci_low: float
    ci_high: float
    ks_statistic: float
    ks_pvalue: float
    ks_ok: bool
    ci_ok: bool

    @property
    def equivalent(self) -> bool:
        """Whether this family passes both checks."""
        return self.ks_ok and self.ci_ok


@dataclass
class EquivalenceResult:
    """Everything one harness invocation produced."""

    rows: List[EquivalenceRow] = field(default_factory=list)
    iterations: int = 0
    alpha: float = DEFAULT_ALPHA
    tolerance: float = DEFAULT_TOLERANCE
    wall_time_s: float = 0.0
    runner_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """``True`` when every compared family is statistically equivalent."""
        return bool(self.rows) and all(row.equivalent for row in self.rows)

    def render(self) -> str:
        """Render the per-family comparison and the verdict."""
        table_rows = [
            [
                row.family,
                row.num_instances,
                row.sample_size,
                f"{row.exact_mean:.4f}",
                f"{row.throughput_mean:.4f}",
                f"{row.mean_diff:+.4f}",
                f"[{row.ci_low:+.4f}, {row.ci_high:+.4f}]",
                f"{row.ks_statistic:.3f}",
                f"{row.ks_pvalue:.3f}",
                "yes" if row.equivalent else "NO",
            ]
            for row in self.rows
        ]
        table = format_table(
            (
                "Family",
                "Instances",
                "Samples/tier",
                "Exact mean",
                "Throughput mean",
                "Mean diff",
                f"Bootstrap CI (tol ±{self.tolerance:g})",
                "KS stat",
                "KS p",
                "Equivalent",
            ),
            table_rows,
            title="Exact vs throughput tier: statistical equivalence",
        )
        verdict = (
            "equivalence: PASS — the throughput tier is statistically "
            "indistinguishable from the exact tier on every compared family"
            if self.passed
            else "equivalence: FAIL — at least one family's accuracy "
            "distribution differs between the tiers"
        )
        return f"{table}\n\n{verdict}"


def bootstrap_mean_difference_ci(
    sample_a: np.ndarray,
    sample_b: np.ndarray,
    num_samples: int = DEFAULT_BOOTSTRAP_SAMPLES,
    confidence: float = 0.99,
    seed: int = 0,
) -> Tuple[float, float]:
    """Seeded percentile-bootstrap CI of ``mean(a) - mean(b)``.

    Deterministic per seed, so harness runs are reproducible end to end.
    """
    if len(sample_a) == 0 or len(sample_b) == 0:
        raise ConfigurationError("bootstrap needs non-empty samples")
    rng = np.random.default_rng(seed)
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    draws_a = rng.integers(0, len(a), size=(num_samples, len(a)))
    draws_b = rng.integers(0, len(b), size=(num_samples, len(b)))
    diffs = a[draws_a].mean(axis=1) - b[draws_b].mean(axis=1)
    tail = (1.0 - confidence) / 2.0
    low, high = np.quantile(diffs, [tail, 1.0 - tail])
    return float(low), float(high)


def plan_equivalence_requests(
    families: Sequence[str] = DEFAULT_EQUIVALENCE_FAMILIES,
    iterations: int = 20,
    seed: int = 2025,
    config: Optional[MSROPMConfig] = None,
) -> List[SolveRequest]:
    """Both tiers' solve requests: the matched ensembles, exact first.

    Reuses the scenario matrix's planner per tier, so the exact half shares
    job hashes (and therefore cache entries) with scenario/suite runs at the
    same seeds, and the throughput half exercises exactly the jobs a
    throughput-tier scenario run would schedule.
    """
    if iterations < 2:
        raise ConfigurationError("the equivalence harness needs at least 2 iterations")
    instances = expand_workloads(list(families), base_seed=seed)
    base = config or default_config(seed)
    requests: List[SolveRequest] = []
    for precision in ("exact", "throughput"):
        requests.extend(
            plan_scenario_requests(
                instances,
                iterations=iterations,
                seed=seed,
                config=base,
                precision=precision,
            )
        )
    return requests


def run_equivalence(
    families: Sequence[str] = DEFAULT_EQUIVALENCE_FAMILIES,
    iterations: int = 20,
    seed: int = 2025,
    config: Optional[MSROPMConfig] = None,
    alpha: float = DEFAULT_ALPHA,
    tolerance: float = DEFAULT_TOLERANCE,
    bootstrap_samples: int = DEFAULT_BOOTSTRAP_SAMPLES,
    runner: Optional[ExperimentRunner] = None,
) -> EquivalenceResult:
    """Run matched exact/throughput ensembles and test their equivalence.

    ``families`` selects the zoo ensembles (at least one; the default
    compares two).  Accuracies are pooled per family across its instances,
    giving one KS test and one bootstrap CI per family.
    """
    from scipy import stats

    if not families:
        raise ConfigurationError("the equivalence harness needs at least one family")
    runner = runner or ExperimentRunner()
    start = time.perf_counter()
    instances = expand_workloads(list(families), base_seed=seed)
    requests = plan_equivalence_requests(
        families=families, iterations=iterations, seed=seed, config=config
    )
    solves = runner.solve_many(requests)
    half = len(instances)
    exact_solves, throughput_solves = solves[:half], solves[half:]

    pooled: Dict[str, Dict[str, List[float]]] = {}
    counts: Dict[str, int] = {}
    for instance, exact, throughput in zip(instances, exact_solves, throughput_solves):
        bucket = pooled.setdefault(instance.family, {"exact": [], "throughput": []})
        bucket["exact"].extend(float(value) for value in exact.accuracies)
        bucket["throughput"].extend(float(value) for value in throughput.accuracies)
        counts[instance.family] = counts.get(instance.family, 0) + 1

    result = EquivalenceResult(
        iterations=iterations, alpha=alpha, tolerance=tolerance
    )
    for family in dict.fromkeys(instance.family for instance in instances):
        exact_sample = np.array(pooled[family]["exact"], dtype=float)
        throughput_sample = np.array(pooled[family]["throughput"], dtype=float)
        ks = stats.ks_2samp(exact_sample, throughput_sample)
        ci_low, ci_high = bootstrap_mean_difference_ci(
            throughput_sample,
            exact_sample,
            num_samples=bootstrap_samples,
            seed=seed,
        )
        mean_diff = float(throughput_sample.mean() - exact_sample.mean())
        result.rows.append(
            EquivalenceRow(
                family=family,
                num_instances=counts[family],
                sample_size=len(exact_sample),
                exact_mean=float(exact_sample.mean()),
                throughput_mean=float(throughput_sample.mean()),
                mean_diff=mean_diff,
                ci_low=ci_low,
                ci_high=ci_high,
                ks_statistic=float(ks.statistic),
                ks_pvalue=float(ks.pvalue),
                ks_ok=bool(ks.pvalue >= alpha),
                ci_ok=bool(-tolerance <= ci_low and ci_high <= tolerance),
            )
        )
    result.wall_time_s = time.perf_counter() - start
    result.runner_stats = runner.stats()
    return result
