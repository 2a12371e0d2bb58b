"""Ablation: the sampler's design choices (beyond the paper's figures).

Two choices the paper makes without measuring are measured here:

* **cell probabilities** — the paper defaults to p[i] ~ 1/degree, arguing
  low-degree orbits are the populous ones in right-skewed networks; the
  ablation compares against uniform cell probabilities;
* **strategy** — Algorithm 3 (exact, backbone-reconstructing) vs
  Algorithm 4 (approximate DFS); the paper reports them "almost the same",
  with the approximate one occasionally better.

Output: average degree- and path-KS per (network, variant), k = 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sampling import inverse_degree_probabilities, sample_many
from repro.experiments.common import ExperimentContext
from repro.metrics.degrees import degree_values
from repro.metrics.ks import ks_statistic
from repro.metrics.paths import path_length_values
from repro.utils.tables import render_table

VARIANTS = (
    ("approximate", "inverse_degree"),
    ("approximate", "uniform"),
    ("exact", "inverse_degree"),
    ("exact", "uniform"),
)


@dataclass
class SamplerAblationResult:
    k: int
    n_samples: int
    #: (network, strategy, probabilities) -> (degree KS, path KS)
    scores: dict[tuple[str, str, str], tuple[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [network, strategy, probs, degree_ks, path_ks]
            for (network, strategy, probs), (degree_ks, path_ks) in self.scores.items()
        ]
        return render_table(
            ["network", "strategy", "cell probabilities", "degree KS", "path KS"],
            rows,
            title=(f"Sampler ablation (k={self.k}, {self.n_samples} samples; "
                   "lower = better)"),
        )


def run_sampler_ablation(
    context: ExperimentContext | None = None,
    k: int = 5,
    networks: tuple[str, ...] = ("enron", "hepth"),
) -> SamplerAblationResult:
    """Measure every sampler variant on each network."""
    context = context or ExperimentContext()
    params = context.params
    n_samples = params["fig8_samples"]
    result = SamplerAblationResult(k=k, n_samples=n_samples)

    for name in networks:
        original = context.graph(name)
        published_graph, published_partition, original_n = context.anonymized(name, k).published()
        metric_rng = context.rng(f"ablation/{name}/metrics")
        orig_degree = degree_values(original)
        orig_paths = path_length_values(
            original, n_pairs=params["path_pairs"],
            rng=metric_rng, n_sources=params["path_sources"],
        )
        uniform = [1.0 / len(published_partition)] * len(published_partition)
        inverse = inverse_degree_probabilities(
            published_graph.degree, published_partition.cells)

        for strategy, prob_name in VARIANTS:
            p = uniform if prob_name == "uniform" else inverse
            samples = sample_many(
                published_graph, published_partition, original_n, n_samples,
                strategy=strategy, p=p,
                rng=context.rng(f"ablation/{name}/{strategy}/{prob_name}"),
                jobs=context.jobs,
            )
            degree_total = path_total = 0.0
            for sample in samples:
                degree_total += ks_statistic(orig_degree, degree_values(sample))
                sample_paths = path_length_values(
                    sample, n_pairs=params["path_pairs"],
                    rng=metric_rng, n_sources=params["path_sources"],
                )
                path_total += ks_statistic(orig_paths, sample_paths)
            result.scores[(name, strategy, prob_name)] = (
                degree_total / n_samples, path_total / n_samples,
            )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run_sampler_ablation().render())
