"""Acceptance gate: every shipping criterion of the toolkit, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  Criteria and tolerances are fixed here, not calibrated:
golden outputs are exact-match, brute-force checks admit zero violations,
and runtime ceilings are hard asserts.
"""

import random
import time

import numpy as np
import pytest

from fwaudit import (
    Box,
    DomainSpec,
    Rule,
    Ruleset,
    bench,
    bench_worst_case,
    box_subtract,
    complete_detection,
    detection,
    equivalent,
    find_redundant,
    find_shadowed,
    records_to_csv,
    rewrite,
)
from fwaudit.audit import RewriteMode
from fwaudit.intervals import boxes_pairwise_disjoint
from fwaudit.rules import Decision

from conftest import box, make_table1, rule


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


# ---------------------------------------------------------------------------
# shared corpus for criteria 4 and 5: 200 seeded random rulesets,
# n <= 12 single-box rules over two attributes on [0,63]^2
# ---------------------------------------------------------------------------

CORPUS_DOMAIN = DomainSpec.of(("s", 0, 63), ("d", 0, 63))


def corpus_ruleset(seed: int) -> Ruleset:
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    rules = []
    for k in range(1, n + 1):
        pairs = []
        for _ in range(2):
            lo = rng.randint(0, 63)
            pairs.append((lo, rng.randint(lo, 63)))
        decision = "accept" if rng.random() < 0.5 else "deny"
        rules.append(rule(k, decision, tuple(pairs)))
    return Ruleset(CORPUS_DOMAIN, tuple(rules))


CORPUS_SEEDS = range(200)


def test_criterion_1_detection_golden_trace():
    """The overlap-stripping audit reproduces the worked five-rule example."""
    t0 = time.perf_counter()
    report = detection(make_table1())
    elapsed = time.perf_counter() - t0

    got = {r.position: (r.condition, r.decision) for r in report.transformed.rules}
    expected = {
        1: ((box((1, 30), (20, 45)),), Decision.DENY),
        2: ((box((31, 60), (25, 35)),), Decision.ACCEPT),
        3: (
            (
                box((61, 70), (20, 45)),
                box((40, 60), (20, 24)),
                box((40, 60), (36, 45)),
            ),
            Decision.ACCEPT,
        ),
        5: ((box((31, 39), (20, 24)), box((31, 39), (36, 40))), Decision.ACCEPT),
    }
    warnings = {(w.position, w.kind.value) for w in report.warnings}
    ok = got == expected and warnings == {(4, "shadowing")} and elapsed < 1.0
    verdict("1 detection golden trace", ok, f"{elapsed * 1000:.0f} ms")
    assert got == expected
    assert warnings == {(4, "shadowing")}
    assert elapsed < 1.0


def test_criterion_2_complete_detection_golden_trace():
    """The two-phase audit reproduces the worked example's final rules."""
    t0 = time.perf_counter()
    report = complete_detection(make_table1())
    elapsed = time.perf_counter() - t0

    got = {r.position: (r.condition, r.decision) for r in report.transformed.rules}
    expected = {
        1: ((box((1, 30), (20, 45)),), Decision.DENY),
        3: ((box((40, 70), (20, 45)),), Decision.ACCEPT),
        5: ((box((31, 39), (20, 40)),), Decision.ACCEPT),
    }
    warnings = {(w.position, w.kind.value) for w in report.warnings}
    ok = got == expected and warnings == {(2, "redundancy"), (4, "shadowing")} and elapsed < 1.0
    verdict("2 complete detection golden trace", ok, f"{elapsed * 1000:.0f} ms")
    assert got == expected
    assert warnings == {(2, "redundancy"), (4, "shadowing")}
    assert elapsed < 1.0


def test_criterion_3_union_counterexamples():
    """The three-rule configurations that single-pair checkers miss."""
    dom = DomainSpec.of(("s", 0, 100))
    redundant_case = Ruleset(
        dom,
        (
            rule(1, "deny", ((10, 50),)),
            rule(2, "accept", ((40, 70),)),
            rule(3, "accept", ((50, 80),)),
        ),
    )
    shadowed_case = Ruleset(
        dom,
        (
            rule(1, "accept", ((10, 50),)),
            rule(2, "accept", ((40, 90),)),
            rule(3, "deny", ((30, 80),)),
        ),
    )
    w1 = {(w.position, w.kind.value) for w in complete_detection(redundant_case).warnings}
    w2 = {(w.position, w.kind.value) for w in complete_detection(shadowed_case).warnings}
    ok = w1 == {(2, "redundancy")} and w2 == {(3, "shadowing")}
    verdict("3 union-of-rules counterexamples", ok, f"{sorted(w1)} / {sorted(w2)}")
    assert w1 == {(2, "redundancy")}
    assert w2 == {(3, "shadowing")}


def test_criterion_4_transformation_guarantees_at_scale():
    """200 random rulesets: equivalence, disjointness, order-freedom, zero findings."""
    t0 = time.perf_counter()
    perm_rng = random.Random(777)
    failures = []
    for seed in CORPUS_SEEDS:
        ruleset = corpus_ruleset(seed)
        report = complete_detection(ruleset)
        out = report.transformed

        if not equivalent(ruleset, out):
            failures.append((seed, "equivalence"))
        if not boxes_pairwise_disjoint([b for r in out.rules for b in r.condition]):
            failures.append((seed, "disjointness"))
        for _ in range(20):
            shuffled = list(out.rules)
            perm_rng.shuffle(shuffled)
            permuted = Ruleset(
                out.domain,
                tuple(
                    Rule(k, r.condition, r.decision)
                    for k, r in enumerate(shuffled, start=1)
                ),
            )
            if not equivalent(ruleset, permuted):
                failures.append((seed, "permutation"))
                break
        if find_shadowed(out) or find_redundant(out):
            failures.append((seed, "freedom"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    verdict(
        "4 transformation guarantees (200 rulesets x 20 permutations)",
        ok,
        f"{len(failures)} violations, {elapsed:.1f} s",
    )
    assert not failures, failures[:10]
    assert elapsed < 60.0


def test_criterion_5_warning_exactness():
    """Audit warnings vs. the brute-force per-rule classification, exactly.

    This asserts set equality between complete_detection's warnings and
    the exhaustive checkers' findings on the original ruleset (positions
    and kinds).  The audit checks every label against the original
    configuration, not against the transformed ruleset it maintains, so
    a rule it drops as absorbed by later same-decision rules is labelled
    redundant only when removing it from the original keeps every
    outcome.  The audit sets aside shadowed rules of the other decision,
    as criterion 2's worked example requires (removing its R2 would hand
    packets to the shadowed R4); no corpus ruleset hinges on that.  See
    the failure detail for any diverging seeds.
    """
    mismatches = []
    for seed in CORPUS_SEEDS:
        ruleset = corpus_ruleset(seed)
        report = complete_detection(ruleset)
        warned = {(w.position, w.kind.value) for w in report.warnings}
        found = {(p, "shadowing") for p in find_shadowed(ruleset)} | {
            (p, "redundancy") for p in find_redundant(ruleset)
        }
        if warned != found:
            mismatches.append((seed, sorted(warned - found), sorted(found - warned)))
    ok = not mismatches
    verdict(
        "5 warning exactness (200 rulesets)",
        ok,
        f"{len(mismatches)} mismatching rulesets",
    )
    assert not mismatches, (
        f"{len(mismatches)}/200 rulesets where audit warnings != brute-force findings "
        f"(seed, warned-only, found-only): {mismatches}"
    )


def test_criterion_6_box_subtraction_algebra():
    """1000 random box pairs on [0,31]^2: every point classified correctly."""
    rng = random.Random(4242)
    side = 32
    violations = 0
    for _ in range(1000):
        def rand_box():
            pairs = []
            for _ in range(2):
                lo = rng.randint(0, side - 1)
                pairs.append((lo, rng.randint(lo, side - 1)))
            return Box.from_pairs(*pairs)

        b, a = rand_box(), rand_box()
        pieces = box_subtract(b, a)
        if len(pieces) > 4:  # 2p with p = 2
            violations += 1
            continue
        # dense-grid ground truth, independent of the interval arithmetic
        def mask(bx):
            m = np.zeros((side, side), dtype=bool)
            (lo0, hi0), (lo1, hi1) = bx
            m[lo0 : hi0 + 1, lo1 : hi1 + 1] = True
            return m

        cover = np.zeros((side, side), dtype=np.int16)
        for piece in pieces:
            cover += mask(piece)
        if cover.max() > 1:  # pieces overlap
            violations += 1
        elif not np.array_equal(cover.astype(bool), mask(b) & ~mask(a)):
            violations += 1
    verdict("6 box subtraction algebra (1000 pairs)", violations == 0,
            f"{violations} violations")
    assert violations == 0


def test_criterion_7_growth_accounting(tmp_path):
    """Worst-case family growth: exact at (2,2), geometric bound elsewhere."""
    t0 = time.perf_counter()
    cases = [(2, 2), (3, 2), (4, 2), (3, 3)]
    records = bench_worst_case(cases)
    csv_text = records_to_csv(records)
    (tmp_path / "growth.csv").write_text(csv_text)

    by_case = {(r.n, r.p): r.out_boxes for r in records}
    bounds = {(n, p): (p**n - 1) // (p - 1) for n, p in cases}
    elapsed = time.perf_counter() - t0

    exact_ok = by_case[(2, 2)] == 3
    bound_ok = all(by_case[c] <= bounds[c] for c in cases)
    ok = exact_ok and bound_ok and elapsed < 5.0
    verdict(
        "7 growth accounting",
        ok,
        "measured " + ", ".join(f"n={n},p={p}:{by_case[(n,p)]}<= {bounds[(n,p)]}" for n, p in cases),
    )
    assert exact_ok, f"(2,2) produced {by_case[(2, 2)]} boxes, wanted exactly 3"
    assert bound_ok
    assert len(csv_text.splitlines()) == 1 + len(cases)
    assert elapsed < 5.0


def test_criterion_8_rewriting_soundness():
    """Positive/negative rewrites match the original under their policies."""
    table1 = make_table1()
    out = complete_detection(table1).transformed
    positive = rewrite(out, RewriteMode.POSITIVE)
    negative = rewrite(out, RewriteMode.NEGATIVE)
    pos_ok = bool(equivalent(table1, positive, default=Decision.DENY))
    neg_ok = bool(equivalent(table1, negative, default=Decision.ACCEPT))
    verdict("8 rewriting soundness", pos_ok and neg_ok,
            f"positive={pos_ok} negative={neg_ok}")
    assert pos_ok and neg_ok


def test_criterion_9_scalability_smoke():
    """Expert-profile audits finish at n = 1000 well inside five minutes."""
    t0 = time.perf_counter()
    records = bench(["detection", "complete"], ["expert"], [1000], seeds=1)
    elapsed = time.perf_counter() - t0
    csv_text = records_to_csv(records)
    lines = csv_text.splitlines()
    shape_ok = len(lines) == 3 and lines[0].startswith("algorithm,profile,n,p,seed")
    ok = elapsed < 300.0 and shape_ok
    verdict(
        "9 scalability smoke (expert n=1000)",
        ok,
        "; ".join(f"{r.algorithm}: {r.elapsed_ms:.0f} ms, {r.out_boxes} boxes" for r in records),
    )
    assert shape_ok
    assert elapsed < 300.0
