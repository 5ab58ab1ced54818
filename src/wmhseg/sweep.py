"""Ensemble-size sweep: repeated trainings, held-out evaluation, mean/std."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import EnsembleConfig
from .errors import ConfigurationError, ContractError
from .metrics import METRIC_NAMES, MetricReport, evaluate_case
from .net.training import TrainConfig, train
from .pipeline import case_training_arrays, predict_case
from .splits import split_ratio


@dataclass
class SweepResult:
    sizes: tuple[int, ...]
    repeats: int
    # metric -> size -> (mean, std) over repeats
    summary: dict[str, dict[int, tuple[float, float]]]

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["size"] + [f"{m}_{s}" for m in METRIC_NAMES
                                        for s in ("mean", "std")])
            for size in self.sizes:
                row = [size]
                for m in METRIC_NAMES:
                    mean, std = self.summary[m][size]
                    row += [f"{mean:.6f}", f"{std:.6f}"]
                writer.writerow(row)


def _mean_metrics(reports: list[MetricReport]) -> dict[str, float]:
    out = {}
    for m in METRIC_NAMES:
        values = [getattr(r, m) for r in reports if getattr(r, m) is not None]
        out[m] = float(np.mean(values)) if values else float("nan")
    return out


def ensemble_sweep(
    cases,
    sizes,
    repeats: int,
    spec,
    train_config: TrainConfig,
    seed: int = 0,
) -> SweepResult:
    """Train size*repeats models per ensemble size and summarize metrics.

    Cases are split once by ``split_ratio`` (stratified by scanner, with
    its default held-out fraction) into training and evaluation sets; each
    (size, repeat) cell trains its own models with a derived seed, evaluates
    the averaged ensemble (``EnsembleConfig``'s threshold and z-trim) on the
    held-out cases and the per-size mean/std is taken across repeats.  Every
    case needs a ground-truth mask; a case without one raises ContractError
    before any training.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ConfigurationError("sizes must be nonempty")
    if min(sizes) < 1:
        raise ConfigurationError(f"every ensemble size must be >= 1, got {sizes}")
    if repeats < 2:
        raise ConfigurationError(f"repeats must be >= 2, got {repeats}")
    if len(cases) < 2:
        raise ConfigurationError("need at least two cases to split")
    for case in cases:
        if case.ground_truth is None:
            raise ContractError(f"case {case.subject_id} has no ground-truth mask")

    plan = split_ratio(cases, seed=seed)
    by_id = {c.subject_id: c for c in cases}
    train_cases = [by_id[i] for i in plan.train_ids]
    eval_cases = [by_id[i] for i in plan.test_ids]
    x, g = case_training_arrays(train_cases)

    # metric -> size -> per-repeat means
    per_metric = {m: {s: [] for s in sizes} for m in METRIC_NAMES}
    for size in sizes:
        config = EnsembleConfig(model_count=size)
        for repeat in range(repeats):
            models = []
            for member in range(size):
                model_seed = hash((seed, size, repeat, member)) & 0x7FFFFFFF
                cfg = replace(train_config, seed=model_seed)
                models.append(train(spec, x, g, cfg)[0])
            reports = []
            for case in eval_cases:
                pred = predict_case(case, spec, models, config,
                                    target=case.flair.data.shape[1:])
                reports.append(evaluate_case(case.ground_truth, pred,
                                             spacing=case.flair.spacing))
            means = _mean_metrics(reports)
            for m in METRIC_NAMES:
                per_metric[m][size].append(means[m])

    summary = {
        m: {
            s: (float(np.mean(per_metric[m][s])), float(np.std(per_metric[m][s])))
            for s in sizes
        }
        for m in METRIC_NAMES
    }
    return SweepResult(sizes=sizes, repeats=repeats, summary=summary)
