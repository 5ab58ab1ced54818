from types import SimpleNamespace

import pytest

from wmhseg.errors import ContractError
from wmhseg.splits import SplitPlan, split_cross_scanner, split_loso, split_ratio


def cases_for(spec):
    """spec: list of (subject_id, scanner_id)."""
    return [SimpleNamespace(subject_id=s, scanner_id=sc) for s, sc in spec]


def sixty_cases():
    return cases_for([(f"s{i:02d}", f"scanner_{i % 3}") for i in range(60)])


class TestSplitPlan:
    def test_overlap_rejected(self):
        with pytest.raises(ContractError):
            SplitPlan("f", ("a", "b"), ("b",))


class TestLOSO:
    def test_sixty_subjects_sixty_folds(self):
        plans = split_loso(sixty_cases())
        assert len(plans) == 60
        for plan in plans:
            assert len(plan.train_ids) == 59
            assert len(plan.test_ids) == 1
            assert set(plan.train_ids) | set(plan.test_ids) == {
                f"s{i:02d}" for i in range(60)
            }

    def test_every_subject_tested_once(self):
        plans = split_loso(sixty_cases())
        tested = [plan.test_ids[0] for plan in plans]
        assert sorted(tested) == sorted(f"s{i:02d}" for i in range(60))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractError):
            split_loso(cases_for([("a", "x"), ("a", "y")]))

    def test_single_subject_rejected(self):
        with pytest.raises(ContractError):
            split_loso(cases_for([("a", "x")]))


class TestCrossScanner:
    def test_three_scanners(self):
        plans = split_cross_scanner(sixty_cases())
        assert len(plans) == 3
        for plan in plans:
            assert plan.fold_id.startswith("scanner_")
            assert len(plan.test_ids) == 20
            assert len(plan.train_ids) == 40

    def test_test_set_is_exactly_one_scanner(self):
        cases = sixty_cases()
        by_scanner = {}
        for c in cases:
            by_scanner.setdefault(c.scanner_id, set()).add(c.subject_id)
        for plan in split_cross_scanner(cases):
            scanner = plan.fold_id.removeprefix("scanner_")
            assert set(plan.test_ids) == by_scanner[scanner]

    def test_single_scanner_rejected(self):
        with pytest.raises(ContractError):
            split_cross_scanner(cases_for([("a", "x"), ("b", "x")]))


class TestRatio:
    def test_partition(self):
        cases = sixty_cases()
        plan = split_ratio(cases, test_fraction=0.2, seed=0)
        all_ids = {c.subject_id for c in cases}
        assert set(plan.train_ids) | set(plan.test_ids) == all_ids
        assert not set(plan.train_ids) & set(plan.test_ids)

    def test_stratified_per_scanner(self):
        cases = sixty_cases()
        plan = split_ratio(cases, test_fraction=0.2, seed=1)
        per_scanner = {}
        by_id = {c.subject_id: c.scanner_id for c in cases}
        for sid in plan.test_ids:
            per_scanner[by_id[sid]] = per_scanner.get(by_id[sid], 0) + 1
        assert per_scanner == {"scanner_0": 4, "scanner_1": 4, "scanner_2": 4}

    def test_at_least_one_test_case_per_group(self):
        cases = cases_for([("a", "x"), ("b", "x"), ("c", "y")])
        plan = split_ratio(cases, test_fraction=0.1, seed=0)
        scanners_tested = {c.scanner_id for c in cases if c.subject_id in plan.test_ids}
        assert scanners_tested == {"x", "y"}

    def test_one_case_per_scanner_rejected(self):
        cases = cases_for([("s1", "a"), ("s2", "b"), ("s3", "c")])
        with pytest.raises(ContractError, match="^ratio split leaves no training case: "
                           "each of the 3 scanners kept at least one case for test"):
            split_ratio(cases, test_fraction=0.2, seed=0)

    def test_deterministic(self):
        cases = sixty_cases()
        a = split_ratio(cases, seed=7)
        b = split_ratio(cases, seed=7)
        assert a.test_ids == b.test_ids
        c = split_ratio(cases, seed=8)
        assert a.test_ids != c.test_ids

    def test_invalid_fraction(self):
        with pytest.raises(ContractError):
            split_ratio(sixty_cases(), test_fraction=0.0)
        with pytest.raises(ContractError):
            split_ratio(sixty_cases(), test_fraction=1.0)
