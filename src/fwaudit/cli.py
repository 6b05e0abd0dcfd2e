"""Command-line front-end.

Exit codes are stable for scripting: 0 means clean, 1 means the command
ran fine but found something (audit warnings, inequivalence), 2 means a
usage, parse, or environment problem.  '-' stands for stdin/stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .audit import ALGORITHMS, RewriteMode, complete_detection, detection, rewrite
from .bench import bench, bench_worst_case, records_to_csv
from .errors import DomainError, FwAuditError, ValidationError
from .intervals import DomainSpec
from .oracle import equivalent, sample_equivalent
from .rulefile import (
    apply_domain_overrides,
    emit_report,
    input_digest,
    parse_domain_overrides,
    parse_ruleset,
    serialize_ruleset,
)
from .synth import PROFILE_NAMES, generate, profile


def _read(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _five_tuple_with(domain_flag: str | None) -> DomainSpec:
    overrides = parse_domain_overrides(domain_flag or "")
    return apply_domain_overrides(DomainSpec.five_tuple(), overrides)


def _load_ruleset(path: str, domain_flag: str | None):
    text = _read(path)
    return parse_ruleset(text, domain_overrides=parse_domain_overrides(domain_flag or "")), text


def _cmd_audit(args) -> int:
    ruleset, text = _load_ruleset(args.input, args.domain)
    # by module-level name, not through ALGORITHMS, so that
    # perfbench/tracing.py can wrap the audits here
    run = detection if args.algorithm == "detection" else complete_detection
    report = run(ruleset)
    _write(args.output, emit_report(report, args.format, digest=input_digest(text)))
    return 1 if report.warnings else 0


def _cmd_rewrite(args) -> int:
    ruleset, _ = _load_ruleset(args.input, args.domain)
    report = complete_detection(ruleset)
    rewritten = rewrite(report.transformed, RewriteMode(args.mode))
    _write(args.output, serialize_ruleset(rewritten))
    return 0


def _cmd_check(args) -> int:
    original, _ = _load_ruleset(args.original, args.domain)
    transformed, _ = _load_ruleset(args.transformed, args.domain)
    if original.domain != transformed.domain:
        raise DomainError("the two rule files declare different domains")
    if args.samples is not None:
        result = sample_equivalent(original, transformed, args.samples, args.seed)
        how = f"{args.samples} samples (seed {args.seed})"
    else:
        result = equivalent(original, transformed)
        how = "exhaustive"
    if result:
        print(f"equivalent ({how})")
        return 0
    packet = ", ".join(
        f"{a.name}={v}" for a, v in zip(original.domain.attributes, result.counterexample)
    )
    print(f"NOT equivalent ({how}); first differing packet: ({packet})")
    return 1


def _cmd_gen(args) -> int:
    domain = _five_tuple_with(args.domain)
    ruleset = generate(profile(args.profile, seed=args.seed), args.count, domain)
    _write(args.output, serialize_ruleset(ruleset))
    return 0


def _cmd_bench(args) -> int:
    cfg = json.loads(_read(args.config))
    if not isinstance(cfg, dict):
        raise ValidationError("a bench config must be a JSON object")
    records = bench(
        algorithms=cfg.get("algorithms", list(ALGORITHMS)),
        profiles=cfg.get("profiles", list(PROFILE_NAMES)),
        sizes=cfg.get("sizes", [50, 100]),
        seeds=int(cfg.get("seeds", 5)),
        domain=_five_tuple_with(cfg.get("domain")),
    )
    records.extend(bench_worst_case(cfg.get("worst_case", [])))
    _write(cfg.get("output", args.output), records_to_csv(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwaudit",
        description="Audit ordered firewall rulesets for shadowed and redundant rules.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="report shadowing/redundancy and the disjoint rewrite")
    p.add_argument("input", help="rule file ('-' for stdin)")
    p.add_argument("--algorithm", choices=list(ALGORITHMS), default="complete")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", default="-")
    p.add_argument("--domain", help="override attribute bounds: name=[lo,hi],...")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("rewrite", help="audit, then keep only permissions or only prohibitions")
    p.add_argument("input")
    p.add_argument("--mode", choices=["positive", "negative"], required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--domain")
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("check", help="verify two rule files classify every packet alike")
    p.add_argument("original")
    p.add_argument("transformed")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True,
                      help="enumerate the whole packet space (the default)")
    mode.add_argument("--samples", type=int, default=None,
                      help="compare on N seeded random packets instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a synthetic rule file")
    p.add_argument("--profile", choices=list(PROFILE_NAMES), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run the benchmark plan in a JSON config, write CSV")
    p.add_argument("--config", required=True, help="JSON config file ('-' for stdin)")
    p.add_argument("--output", default="-", help="CSV destination if the config names none")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except (FwAuditError, OSError, ValueError) as e:
        # json.JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
