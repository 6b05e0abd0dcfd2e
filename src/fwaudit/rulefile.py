"""Rule-file parsing and serialization, and audit-report emission.

File format (UTF-8, one record per line, comma-separated):

    # comment lines start with '#'; blank lines are ignored
    @domain protocol=[0,255], source=[0,4294967295], sport=[0,65535], destination=[0,4294967295], dport=[0,65535]
    1, any, [1,30], any, [20,45], any, deny

The optional ``@domain`` header names every attribute in column order and
gives its inclusive bounds; without it, files use the standard five-tuple
above.  Records carry the order value, one condition token per attribute,
and the decision (accept/deny).  Condition tokens:

    any            the attribute's whole domain
    7              the single value 7
    [a,b]          the inclusive range a..b
    10.0.0.7       IPv4 dotted quad (source/destination style attributes)
    10.0.0.[1,30]  dotted quad ranging over the last octet
    tcp|udp|icmp   protocol names (on the attribute named "protocol")

Input rules carry one box each.  Serialized transformed rulesets emit one
record per box; a multi-box rule shares its order value with a sub-index
(3.1, 3.2, ...), and the parser re-assembles consecutive sub-indexed
records into the original multi-box rule, so parse(serialize(r)) == r.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass

from ._version import __version__
from .audit import AuditReport, AuditStats, RuleWarning, WarningKind
from .errors import DomainError, ParseError, ValidationError
from .intervals import AttributeDomain, Box, DomainSpec, Interval
from .rules import Decision, Rule, Ruleset

PROTOCOL_NAMES = {"tcp": 6, "udp": 17, "icmp": 1}

_ORDER_RE = re.compile(r"^(\d+)(?:\.(\d+))?$")
_RANGE_RE = re.compile(r"^\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]$")
_QUAD_RE = re.compile(r"^(\d+)\.(\d+)\.(\d+)\.(\d+)$")
_QUAD_RANGE_RE = re.compile(r"^(\d+)\.(\d+)\.(\d+)\.\[\s*(\d+)\s*,\s*(\d+)\s*\]$")


def input_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _quad_base(parts: tuple[str, ...], line: int) -> int:
    octets = [int(x) for x in parts]
    for o in octets:
        if o > 255:
            raise ValidationError(f"line {line}: IPv4 octet {o} out of range")
    return (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8)


def _parse_value(token: str, attr: AttributeDomain, line: int) -> Interval:
    token = token.strip()
    if token == "any":
        return Interval(attr.lo, attr.hi)
    if attr.name == "protocol" and token.lower() in PROTOCOL_NAMES:
        v = PROTOCOL_NAMES[token.lower()]
        return _checked(v, v, attr, line)
    m = _RANGE_RE.match(token)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        return _checked(a, b, attr, line)
    m = _QUAD_RANGE_RE.match(token)
    if m:
        base = _quad_base(m.groups()[:3], line)
        a, b = int(m.group(4)), int(m.group(5))
        if a > 255 or b > 255:
            raise ValidationError(f"line {line}: IPv4 octet range [{a},{b}] out of range")
        return _checked(base + a, base + b, attr, line)
    m = _QUAD_RE.match(token)
    if m:
        v = _quad_base(m.groups()[:3], line) | int(m.group(4))
        if int(m.group(4)) > 255:
            raise ValidationError(f"line {line}: IPv4 octet {m.group(4)} out of range")
        return _checked(v, v, attr, line)
    try:
        v = int(token)
    except ValueError:
        raise ParseError(f"bad condition value {token!r} for attribute {attr.name}", line) from None
    return _checked(v, v, attr, line)


def _checked(a: int, b: int, attr: AttributeDomain, line: int) -> Interval:
    if a > b:
        raise ValidationError(f"line {line}: inverted range [{a},{b}] on attribute {attr.name}")
    if a < attr.lo or b > attr.hi:
        raise DomainError(
            f"line {line}: [{a},{b}] outside attribute {attr.name} [{attr.lo},{attr.hi}]"
        )
    return Interval(a, b)


def _parse_bounds(text: str, line: int | None) -> dict[str, tuple[int, int]]:
    """Parse 'name=[lo,hi], ...'; ``line`` is the rule-file line, if any."""
    where = "" if line is None else f"line {line}: "
    bounds: dict[str, tuple[int, int]] = {}
    for part in _rejoin_ranges([p.strip() for p in text.split(",")], line):
        if not part:
            continue
        name, eq, rng = part.partition("=")
        name = name.strip()
        m = _RANGE_RE.match(rng.strip())
        if not eq or not m:
            raise ParseError(f"bad domain bounds {part!r} (want name=[lo,hi])", line)
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ValidationError(f"{where}inverted domain bounds for {name}")
        if name in bounds:
            raise ValidationError(f"{where}duplicate domain attribute {name!r}")
        bounds[name] = (lo, hi)
    return bounds


def _parse_domain_header(body: str, line: int) -> DomainSpec:
    bounds = _parse_bounds(body, line)
    if not bounds:
        raise ParseError("@domain header declares no attributes", line)
    return DomainSpec.of(*((name, lo, hi) for name, (lo, hi) in bounds.items()))


def parse_domain_overrides(text: str) -> dict[str, tuple[int, int]]:
    """Parse a 'name=[lo,hi],name=[lo,hi]' bounds-override string (CLI --domain)."""
    return _parse_bounds(text, None)


def apply_domain_overrides(
    domain: DomainSpec, overrides: dict[str, tuple[int, int]] | None
) -> DomainSpec:
    """Replace the bounds of the named attributes; the attribute layout stays."""
    if not overrides:
        return domain
    for name in overrides:
        if name not in domain.names:
            raise DomainError(f"unknown attribute {name!r}; the domain has {list(domain.names)}")
    return DomainSpec.of(
        *((a.name, *overrides.get(a.name, (a.lo, a.hi))) for a in domain.attributes)
    )


def parse_ruleset(
    text: str, *, domain_overrides: dict[str, tuple[int, int]] | None = None
) -> Ruleset:
    """Parse rule-file content into a Ruleset.

    ``domain_overrides`` replaces the bounds of named attributes after the
    header (or default) domain is established; it never changes the
    attribute layout.
    """
    domain = None
    records: list[tuple[int, int, Box, Decision, int]] = []  # major, minor, box, decision, line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@domain"):
            if records:
                raise ParseError("@domain header must precede all rules", lineno)
            if domain is not None:
                raise ParseError("duplicate @domain header", lineno)
            header = _parse_domain_header(line[len("@domain") :], lineno)
            domain = apply_domain_overrides(header, domain_overrides)
            continue
        if domain is None:
            domain = apply_domain_overrides(DomainSpec.five_tuple(), domain_overrides)
        fields = [f.strip() for f in line.split(",")]
        # bracketed ranges contain commas; re-join split range halves
        fields = _rejoin_ranges(fields, lineno)
        if len(fields) != domain.p + 2:
            raise ParseError(
                f"expected {domain.p + 2} fields (order, {domain.p} conditions, decision), got {len(fields)}",
                lineno,
            )
        m = _ORDER_RE.match(fields[0])
        if not m:
            raise ParseError(f"bad order value {fields[0]!r}", lineno)
        major = int(m.group(1))
        minor = int(m.group(2)) if m.group(2) else 0
        if major < 1:
            raise ValidationError(f"line {lineno}: order must be >= 1")
        try:
            decision = Decision(fields[-1].lower())
        except ValueError:
            raise ParseError(f"bad decision {fields[-1]!r} (want accept or deny)", lineno) from None
        box = Box(
            tuple(
                _parse_value(tok, attr, lineno)
                for tok, attr in zip(fields[1:-1], domain.attributes)
            )
        )
        records.append((major, minor, box, decision, lineno))

    if domain is None:
        domain = apply_domain_overrides(DomainSpec.five_tuple(), domain_overrides)

    rules: list[Rule] = []
    last_key: tuple[int, int] | None = None
    for major, minor, box, decision, lineno in records:
        key = (major, minor)
        if last_key is not None and key <= last_key:
            raise ValidationError(f"line {lineno}: order values must be strictly increasing")
        last_key = key
        if rules and rules[-1].position == major:
            prev = rules[-1]
            if minor == 0:
                raise ValidationError(f"line {lineno}: duplicate order value {major}")
            if prev.decision is not decision:
                raise ValidationError(
                    f"line {lineno}: records of rule {major} disagree on the decision"
                )
            rules[-1] = Rule(major, prev.condition + (box,), decision)
        else:
            rules.append(Rule(major, (box,), decision))
    return Ruleset(domain, tuple(rules))


def _rejoin_ranges(fields: list[str], lineno: int | None) -> list[str]:
    out: list[str] = []
    pending = None
    for f in fields:
        if pending is not None:
            pending = pending + "," + f
            if "]" in f:
                out.append(pending)
                pending = None
        elif ("[" in f) and ("]" not in f):
            pending = f
        else:
            out.append(f)
    if pending is not None:
        raise ParseError(f"unterminated range in {pending!r}", lineno)
    return out


def _format_interval(iv: Interval, attr: AttributeDomain) -> str:
    if iv.lo == attr.lo and iv.hi == attr.hi:
        return "any"
    if iv.lo == iv.hi:
        return str(iv.lo)
    return f"[{iv.lo},{iv.hi}]"


def serialize_ruleset(ruleset: Ruleset) -> str:
    """Deterministic textual form of a ruleset; see the module docstring."""
    lines = [
        "@domain "
        + ", ".join(f"{a.name}=[{a.lo},{a.hi}]" for a in ruleset.domain.attributes)
    ]
    for rule in ruleset.rules:
        multi = len(rule.condition) > 1
        for k, box in enumerate(rule.condition, start=1):
            order = f"{rule.position}.{k}" if multi else str(rule.position)
            toks = [
                _format_interval(iv, attr)
                for iv, attr in zip(box.intervals, ruleset.domain.attributes)
            ]
            lines.append(", ".join([order, *toks, rule.decision.value]))
    return "\n".join(lines) + "\n"


REPORT_SCHEMA_VERSION = 1


def _typed(value, *kinds):
    """Return value if it has one of the JSON types kinds; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{value!r} is not {' or '.join(k.__name__ for k in kinds)}")
    return value


def _ints(values) -> tuple[int, ...]:
    return tuple(_typed(v, int) for v in values)


@dataclass(frozen=True, slots=True)
class ReportDocument:
    """Machine-readable audit report: the AuditReport plus provenance."""

    tool_version: str
    algorithm: str
    input_digest: str | None
    domain: DomainSpec
    warnings: tuple[RuleWarning, ...]
    rules: tuple[Rule, ...]
    stats: AuditStats

    @classmethod
    def from_report(cls, report: AuditReport, digest: str | None = None) -> ReportDocument:
        return cls(
            tool_version=__version__,
            algorithm=report.algorithm,
            input_digest=digest,
            domain=report.transformed.domain,
            warnings=report.warnings,
            rules=report.transformed.rules,
            stats=report.stats,
        )

    def to_json(self) -> str:
        """The schema-versioned JSON form; ``from_json`` reads it back."""
        doc = {
            "version": REPORT_SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "algorithm": self.algorithm,
            "input_digest": self.input_digest,
            "domain": [{"name": a.name, "lo": a.lo, "hi": a.hi} for a in self.domain.attributes],
            "warnings": [{"rule": w.position, "kind": w.kind.value} for w in self.warnings],
            "rules": [
                {
                    "order": r.position,
                    "decision": r.decision.value,
                    "condition": [[[iv.lo, iv.hi] for iv in box.intervals] for box in r.condition],
                }
                for r in self.rules
            ],
            "stats": asdict(self.stats),
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ReportDocument:
        """Read ``to_json`` output back; malformed input raises ParseError."""
        try:
            doc = json.loads(text)
            if doc["version"] != REPORT_SCHEMA_VERSION:
                raise ParseError(f"unsupported report version {doc['version']!r}")
            st = doc["stats"]
            return cls(
                tool_version=_typed(doc["tool_version"], str),
                algorithm=_typed(doc["algorithm"], str),
                input_digest=_typed(doc.get("input_digest"), str, type(None)),
                domain=DomainSpec.of(
                    *((_typed(a["name"], str), *_ints((a["lo"], a["hi"]))) for a in doc["domain"])
                ),
                warnings=tuple(
                    RuleWarning(_typed(w["rule"], int), WarningKind(w["kind"]))
                    for w in doc["warnings"]
                ),
                rules=tuple(
                    Rule(
                        _typed(r["order"], int),
                        tuple(Box.from_pairs(*map(_ints, box)) for box in r["condition"]),
                        Decision(r["decision"]),
                    )
                    for r in doc["rules"]
                ),
                stats=AuditStats(
                    *_ints((st["input_rules"], st["output_rules"], st["output_boxes"])),
                    _typed(st["elapsed_ms"], int, float),
                ),
            )
        except (KeyError, TypeError, ValueError) as e:
            # json.JSONDecodeError is a ValueError
            raise ParseError(f"bad report JSON: {e!r}") from None


report_from_json = ReportDocument.from_json


def emit_report(report: AuditReport, format: str = "text", *, digest: str | None = None) -> str:
    """Render an audit report as schema-versioned JSON or as readable text."""
    if format == "json":
        return ReportDocument.from_report(report, digest).to_json()
    if format == "text":
        s = report.stats
        lines = [
            f"audit: {report.algorithm}",
            f"rules in: {s.input_rules}  rules out: {s.output_rules}  "
            f"boxes out: {s.output_boxes}  elapsed: {s.elapsed_ms:.2f} ms",
            "",
        ]
        if report.warnings:
            lines.append("warnings:")
            lines.extend(f"  R{w.position}: {w.kind.value}" for w in report.warnings)
        else:
            lines.append("warnings: none")
        lines.append("")
        lines.append(serialize_ruleset(report.transformed).rstrip("\n"))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")
