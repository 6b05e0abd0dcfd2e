import csv
import io
import statistics

import pytest

from fwaudit import DomainSpec, bench, bench_worst_case, complete_detection, records_to_csv
from fwaudit.bench import CSV_COLUMNS
from fwaudit.synth import generate, profile

FIVE = DomainSpec.five_tuple()
SMALL = DomainSpec.of(
    ("protocol", 0, 0), ("source", 0, 15), ("sport", 0, 3), ("destination", 0, 15), ("dport", 0, 3)
)


class TestBench:
    def test_cell_count_and_order(self):
        records = bench(["detection"], ["expert", "beginner"], [50, 100], seeds=3)
        assert len(records) == 2 * 2 * 3
        keys = [(r.algorithm, r.profile, r.n, r.seed) for r in records]
        expected = [
            ("detection", prof, n, seed)
            for prof in ("beginner", "expert")  # profiles sorted by name
            for n in (50, 100)  # sizes keep the given order
            for seed in range(3)
        ]
        assert keys == expected

    def test_empty_sizes_give_no_records(self):
        assert bench(["detection"], ["beginner"], [], seeds=5) == []

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            bench(["quickest"], ["beginner"], [10], seeds=1)

    def test_detection_time_grows_with_n(self):
        records = bench(["detection"], ["beginner"], [50, 100, 200], seeds=10)
        medians = [
            statistics.median(r.elapsed_ms for r in records if r.n == n)
            for n in (50, 100, 200)
        ]
        assert medians == sorted(medians)

    def test_expert_produces_at_least_beginner_boxes(self):
        records = bench(["detection"], ["beginner", "expert"], [100], seeds=10)
        med = {
            name: statistics.median(r.out_boxes for r in records if r.profile == name)
            for name in ("beginner", "expert")
        }
        assert med["expert"] >= med["beginner"]

    def test_records_carry_warning_counts(self):
        # the small-domain intermediate n = 10 seed 0 ruleset keeps a
        # labelled rule that carries packets of a rule the audit emptied
        for prof, n, domain in (("expert", 80, FIVE), ("intermediate", 10, SMALL)):
            records = bench(["complete"], [prof], [n], seeds=2, domain=domain)
            for r in records:
                assert r.out_rules + r.shadowing_warnings + r.redundancy_warnings >= n
                assert r.p == 5
                report = complete_detection(generate(profile(prof, seed=r.seed), n, domain))
                kept = {rule.position for rule in report.transformed.rules}
                missing = set(range(1, n + 1)) - kept
                assert missing <= {w.position for w in report.warnings}
                assert (r.out_rules, r.shadowing_warnings + r.redundancy_warnings) == (
                    len(kept), len(report.warnings))


class TestCsv:
    def test_header_is_the_documented_interface(self):
        out = records_to_csv([])
        assert out == "algorithm,profile,n,p,seed,elapsed_ms,out_rules,out_boxes,"\
            "shadowing_warnings,redundancy_warnings\n"

    def test_rows_parse_back(self):
        records = bench(["detection"], ["beginner"], [30], seeds=2)
        rows = list(csv.DictReader(io.StringIO(records_to_csv(records))))
        assert len(rows) == 2
        assert set(rows[0]) == set(CSV_COLUMNS)
        assert rows[0]["algorithm"] == "detection"
        assert int(rows[0]["n"]) == 30
        assert float(rows[0]["elapsed_ms"]) >= 0.0


class TestWorstCaseBench:
    def test_records_measured_growth(self):
        records = bench_worst_case([(2, 2), (3, 2)])
        assert [(r.n, r.p, r.out_boxes) for r in records] == [(2, 2, 3), (3, 2, 5)]
        assert all(r.profile == "worstcase" for r in records)
