"""Dataset split plans: leave-one-subject-out, cross-scanner and ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class SplitPlan:
    fold_id: str
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        if set(self.train_ids) & set(self.test_ids):
            raise ContractError(f"fold {self.fold_id}: train and test overlap")


def split_loso(cases) -> list[SplitPlan]:
    """One fold per subject; that subject alone forms the test set."""
    ids = [c.subject_id for c in cases]
    if len(set(ids)) != len(ids):
        raise ContractError("duplicate subject ids")
    if len(ids) < 2:
        raise ContractError("leave-one-subject-out needs at least two subjects")
    return [
        SplitPlan(
            fold_id=f"loso_{held_out}",
            train_ids=tuple(i for i in ids if i != held_out),
            test_ids=(held_out,),
        )
        for held_out in ids
    ]


def split_cross_scanner(cases) -> list[SplitPlan]:
    """One fold per scanner; that scanner's cases form the test set."""
    scanners = []
    for c in cases:
        if c.scanner_id not in scanners:
            scanners.append(c.scanner_id)
    if len(scanners) < 2:
        raise ContractError("cross-scanner splits need at least two scanner ids")
    plans = []
    for scanner in scanners:
        test = tuple(c.subject_id for c in cases if c.scanner_id == scanner)
        train = tuple(c.subject_id for c in cases if c.scanner_id != scanner)
        plans.append(SplitPlan(fold_id=f"scanner_{scanner}", train_ids=train,
                               test_ids=test))
    return plans


def split_ratio(cases, test_fraction: float = 0.2, seed: int = 0) -> SplitPlan:
    """A single random train/validation split, stratified per scanner.

    Every scanner keeps at least one case for test, so a dataset with one
    case per scanner has nothing left to train on; that raises ContractError.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ContractError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    groups: dict[str, list[str]] = {}
    for c in cases:
        groups.setdefault(c.scanner_id, []).append(c.subject_id)

    test: list[str] = []
    for ids in groups.values():
        ids = list(ids)
        rng.shuffle(ids)
        n_test = max(1, round(test_fraction * len(ids)))
        test.extend(ids[:n_test])
    train = tuple(c.subject_id for c in cases if c.subject_id not in set(test))
    if not train:
        raise ContractError(
            f"ratio split leaves no training case: each of the {len(groups)} scanners "
            f"kept at least one case for test, which takes all {len(test)} cases")
    return SplitPlan(fold_id="ratio", train_ids=train, test_ids=tuple(test))
