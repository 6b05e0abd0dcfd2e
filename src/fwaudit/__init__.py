"""Audit ordered firewall filtering rulesets for shadowing and redundancy,
rewrite them into an equivalent order-independent form, and verify every
transformation against a brute-force first-match oracle."""

from .audit import (
    AuditReport,
    AuditStats,
    RewriteMode,
    RuleWarning,
    WarningKind,
    complete_detection,
    detection,
    probe_redundancy,
    rewrite,
    test_redundancy,
)
from .bench import BenchRecord, bench, bench_worst_case, records_to_csv
from .errors import (
    ArityError,
    DisjointnessError,
    DomainError,
    DomainTooLargeError,
    FwAuditError,
    ParseError,
    ValidationError,
)
from .intervals import (
    AttributeDomain,
    Box,
    DomainSpec,
    Interval,
    box_intersects,
    box_subtract,
    boxes_pairwise_disjoint,
    interval_intersect,
    interval_subtract,
)
from .oracle import (
    EquivalenceResult,
    Outcome,
    equivalent,
    evaluate,
    find_redundant,
    find_shadowed,
    sample_equivalent,
)
from .rulefile import (
    ReportDocument,
    apply_domain_overrides,
    emit_report,
    input_digest,
    parse_ruleset,
    report_from_json,
    serialize_ruleset,
)
from .rules import Decision, Rule, Ruleset, exclusion
from .synth import GeneratorProfile, generate, profile, worst_case_family

from ._version import __version__  # noqa: E402  (re-export)
