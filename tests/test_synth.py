import hashlib
import statistics

import pytest

from fwaudit import (
    DomainSpec,
    GeneratorProfile,
    complete_detection,
    detection,
    equivalent,
    find_redundant,
    find_shadowed,
    generate,
    parse_ruleset,
    profile,
    serialize_ruleset,
    worst_case_family,
)
from fwaudit.intervals import box_intersects, boxes_pairwise_disjoint

FIVE = DomainSpec.five_tuple()
SMALL = DomainSpec.of(("s", 0, 63), ("d", 0, 63))


def overlap_fraction(ruleset):
    boxes = [r.condition[0] for r in ruleset.rules]
    hits = sum(
        1
        for k in range(1, len(boxes))
        if any(box_intersects(boxes[k], earlier) for earlier in boxes[:k])
    )
    return hits / (len(boxes) - 1)


class TestProfiles:
    def test_named_profiles(self):
        assert profile("beginner").overlap_probability == 0.05
        assert profile("expert").overlap_probability == 0.90
        assert profile("intermediate").overlap_probability == 0.475

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            profile("novice")

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            GeneratorProfile("x", 1.5)


class TestGenerate:
    def test_deterministic(self):
        a = generate(profile("beginner", seed=42), 100, FIVE)
        b = generate(profile("beginner", seed=42), 100, FIVE)
        assert serialize_ruleset(a) == serialize_ruleset(b)

    def test_seeds_differ(self):
        a = generate(profile("beginner", seed=1), 50, FIVE)
        b = generate(profile("beginner", seed=2), 50, FIVE)
        assert serialize_ruleset(a) != serialize_ruleset(b)

    def test_expert_overlap_fraction_near_nominal(self):
        fractions = [
            overlap_fraction(generate(profile("expert", seed=s), 200, FIVE))
            for s in range(30)
        ]
        assert abs(statistics.mean(fractions) - 0.90) <= 0.10

    def test_zero_overlap_is_pairwise_disjoint(self):
        rs = generate(GeneratorProfile("solo", 0.0, seed=9), 100, FIVE)
        assert boxes_pairwise_disjoint([r.condition[0] for r in rs.rules])
        assert detection(rs).warnings == ()

    def test_generated_rulesets_parse_losslessly(self):
        rs = generate(profile("intermediate", seed=8), 60, FIVE)
        assert parse_ruleset(serialize_ruleset(rs)) == rs

    def test_small_domain_outputs_survive_the_oracle(self):
        # the transformation guarantees, exercised on generated workloads
        for seed in range(10):
            rs = generate(profile("intermediate", seed=seed), 8, SMALL)
            report = complete_detection(rs)
            assert equivalent(rs, report.transformed), f"seed {seed}"
            assert boxes_pairwise_disjoint(
                [b for r in report.transformed.rules for b in r.condition]
            )
            assert find_shadowed(report.transformed) == set()
            assert find_redundant(report.transformed) == set()

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("beginner", "fbdb1fb50c44c5f65068be696605642ccc48a5fb39b84b8af614ac3c9498b960"),
            ("intermediate", "a1373c08ea67a0f20718c696bfc5f0b0fe8de4deb69a9a4e25e320f7af09687f"),
        ],
    )
    def test_domain_wider_than_int64_draws_pinned(self, name, digest):
        # 41 x 41 values beyond int64 on both sides: the fresh-box test runs
        # on exact object bounds and rejects about a dozen draws at beginner;
        # the digests were recorded with the box-by-box rejection test
        wide = DomainSpec.of(("a", 2**64, 2**64 + 40), ("b", -(2**64) - 40, -(2**64)))
        rs = generate(profile(name, seed=4), 30, wide)
        assert hashlib.sha256(serialize_ruleset(rs).encode()).hexdigest() == digest
        assert parse_ruleset(serialize_ruleset(rs)) == rs

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            generate(profile("beginner"), 0, FIVE)


class TestWorstCaseFamily:
    def test_two_rules_two_attributes_gives_three_boxes(self):
        rs = worst_case_family(2, 2)
        assert [b.intervals[0].hi for r in rs.rules for b in r.condition] == [10, 20]
        report = detection(rs)
        assert report.stats.output_boxes == 3  # 1 + p

    def test_two_rules_three_attributes_splits_into_three(self):
        rs = worst_case_family(2, 3)
        report = detection(rs)
        (second,) = [r for r in report.transformed.rules if r.position == 2]
        assert len(second.condition) == 3
        assert report.stats.output_boxes == 4

    def test_growth_stays_under_geometric_bound(self):
        for n, p in [(3, 2), (4, 2), (3, 3)]:
            report = detection(worst_case_family(n, p))
            bound = (p**n - 1) // (p - 1)
            assert report.stats.output_boxes <= bound, (n, p)

    def test_equivalence_preserved(self):
        rs = worst_case_family(4, 2)
        assert equivalent(rs, detection(rs).transformed)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            worst_case_family(1, 2)
        with pytest.raises(ValueError):
            worst_case_family(2, 1)
