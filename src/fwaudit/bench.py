"""Benchmark harness: run audits over synthetic workloads, emit CSV.

Timing covers the audit call only (never generation or parsing).  Cells
run and are recorded in a deterministic order -- algorithms sorted by
name, profiles sorted by name, sizes as given, seeds 0..count-1 -- so two
runs of the same plan produce row-identical CSV apart from the elapsed
column.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Sequence
from dataclasses import astuple, dataclass, fields, replace

from .audit import ALGORITHMS, WarningKind
from .intervals import DomainSpec
from .rules import Ruleset
from .synth import generate, profile, worst_case_family


@dataclass(frozen=True, slots=True)
class BenchRecord:
    """One CSV row; the field order is the documented column order."""

    algorithm: str
    profile: str
    n: int
    p: int
    seed: int
    elapsed_ms: float
    out_rules: int
    out_boxes: int
    shadowing_warnings: int
    redundancy_warnings: int


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def _run_cell(algorithm: str, profile_name: str, ruleset: Ruleset, seed: int) -> BenchRecord:
    report = ALGORITHMS[algorithm](ruleset)
    kinds = [w.kind for w in report.warnings]
    return BenchRecord(
        algorithm=algorithm,
        profile=profile_name,
        n=len(ruleset.rules),
        p=ruleset.domain.p,
        seed=seed,
        elapsed_ms=report.stats.elapsed_ms,
        out_rules=report.stats.output_rules,
        out_boxes=report.stats.output_boxes,
        shadowing_warnings=kinds.count(WarningKind.SHADOWING),
        redundancy_warnings=kinds.count(WarningKind.REDUNDANCY),
    )


def bench(
    algorithms: Iterable[str],
    profiles: Iterable[str],
    sizes: Sequence[int],
    seeds: int,
    domain: DomainSpec | None = None,
) -> list[BenchRecord]:
    """Run every (algorithm, profile, size, seed) cell and collect records."""
    domain = domain or DomainSpec.five_tuple()
    profs = [profile(name) for name in sorted(profiles)]
    records = []
    for algorithm in sorted(set(algorithms)):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; choose from {list(ALGORITHMS)}")
        for prof in profs:
            for n in sizes:
                for seed in range(seeds):
                    ruleset = generate(replace(prof, seed=seed), n, domain)
                    records.append(_run_cell(algorithm, prof.name, ruleset, seed))
    return records


def bench_worst_case(cases: Sequence[tuple[int, int]]) -> list[BenchRecord]:
    """Audit the corner-anchored worst-case family for each (n, p) case with ``detection``."""
    records = []
    for n, p in cases:
        ruleset = worst_case_family(n, p)
        records.append(_run_cell("detection", "worstcase", ruleset, 0))
    return records


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(astuple(r))
    return buf.getvalue()
