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
    7              the single value 7 (an integer is digits after an optional '-')
    [a,b]          the inclusive range a..b
    10.0.0.7       IPv4 dotted quad (source/destination style attributes)
    10.0.0.[1,30]  dotted quad ranging over the last octet
    tcp|udp|icmp   protocol names (on the attribute named "protocol")

Input rules carry one box each.  Serialized transformed rulesets emit one
record per box; a multi-box rule shares its order value with a sub-index
(3.1, 3.2, ...), and the parser re-assembles consecutive sub-indexed
records into the original multi-box rule, so parse(serialize(r)) == r.
The sub-records of one rule must agree on the decision and their boxes
must be pairwise disjoint; the parser rejects a record that overlaps an
earlier record of its rule.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass
from itertools import repeat

from ._version import __version__
from .audit import ALGORITHMS, AuditReport, AuditStats, RuleWarning, WarningKind
from .errors import ArityError, DomainError, ParseError, ValidationError
from .intervals import AttributeDomain, DomainSpec, box_intersects, boxes_pairwise_disjoint
from .rules import Decision, Rule, Ruleset

PROTOCOL_NAMES = {"tcp": 6, "udp": 17, "icmp": 1}

_ORDER_RE = re.compile(r"^(\d+)(?:\.(\d+))?$")
_RANGE_RE = re.compile(r"^\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]$")
# a.b.c.d, or a.b.c.[x,y] ranging over the last octet
_QUAD_RE = re.compile(r"^(\d+)\.(\d+)\.(\d+)\.(?:(\d+)|\[\s*(\d+)\s*,\s*(\d+)\s*\])$")
# an attribute name holds no bracket, comma or '='
_BOUND_RE = re.compile(r"^([^\[\],=]+?)\s*=\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]$")
# a comma outside brackets: no ']' follows it before the next '['
_FIELD_SEP_RE = re.compile(r",(?![^\[]*\])")


def input_digest(text: str) -> str:
    # loading OpenSSL costs about 3 ms, and only `fwaudit audit` takes a digest
    import hashlib

    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_value(token: str, attr: AttributeDomain, whole: tuple[int, int], line: int) -> tuple[int, int]:
    if token == "any":
        return whole
    try:
        if attr.name == "protocol" and token.lower() in PROTOCOL_NAMES:
            a = b = PROTOCOL_NAMES[token.lower()]
        elif token.removeprefix("-").isdecimal():  # -?\d+, the integer _RANGE_RE takes
            a = b = int(token)
        elif m := _RANGE_RE.match(token):
            a, b = int(m.group(1)), int(m.group(2))
        elif m := _QUAD_RE.match(token):
            *net, last, lo, hi = m.groups()
            octets = [int(x) for x in (*net, last or lo, last or hi)]
            for o in octets:
                if o > 255:
                    raise ValidationError(f"line {line}: IPv4 octet {o} out of range")
            base = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8)
            a, b = base + octets[3], base + octets[4]
        else:
            raise ValueError
    except ValueError:  # no token form, or more digits than int() reads
        raise ParseError(f"bad condition value {token!r} for attribute {attr.name}", line) from None
    return _interval(a, b, attr, line)


def _interval(a: int, b: int, attr: AttributeDomain, line: int) -> tuple[int, int]:
    """The pair (a, b) of ``attr``; an inverted or out-of-domain one is an error on ``line``."""
    if a > b:
        raise ValidationError(f"line {line}: inverted range [{a},{b}] on attribute {attr.name}")
    if a < attr.lo or b > attr.hi:
        raise DomainError(
            f"line {line}: [{a},{b}] outside attribute {attr.name} [{attr.lo},{attr.hi}]"
        )
    return (a, b)


def parse_domain_overrides(text: str, line: int | None = None) -> dict[str, tuple[int, int]]:
    """Parse 'name=[lo,hi], ...' bounds: CLI --domain, or the @domain header on ``line``."""
    where = "" if line is None else f"line {line}: "
    bounds: dict[str, tuple[int, int]] = {}
    for part in (p.strip() for p in _FIELD_SEP_RE.split(text)):
        if not part:
            continue
        m = _BOUND_RE.match(part)
        if not m:
            raise ParseError(f"bad domain bounds {part!r} (want name=[lo,hi])", line)
        name = m.group(1)
        try:
            lo, hi = int(m.group(2)), int(m.group(3))
        except ValueError:  # more digits than int() reads
            raise ParseError(
                f"domain bound of {name} has more digits than int() reads", line
            ) from None
        if lo > hi:
            raise ValidationError(f"{where}inverted domain bounds for {name}")
        if name in bounds:
            raise ValidationError(f"{where}duplicate domain attribute {name!r}")
        bounds[name] = (lo, hi)
    return bounds


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
    attribute layout.  Errors name the first bad line.

    Every line is one match of one pattern (``_line_re``): a record as
    ``serialize_ruleset`` writes it comes out split into its tokens, and
    any other line is split here, so that any whitespace and every token
    form parse; both kinds of line take the same checks.
    """
    if not text.endswith("\n"):
        text += "\n"  # so that the last line ends in a break too
    # the blank and comment lines before an optional @domain header; the
    # patterns compile on first use, which re caches, not at import
    head = re.compile(
        rf"((?:{_SPACE}*(?:#[^{_BREAKS}]*)?{_EOL})*)(?:{_SPACE}*(@domain[^{_BREAKS}]*){_EOL})?"
    ).match(text)
    lineno = len(head[1].splitlines()) + 1
    domain = DomainSpec.five_tuple()
    if (header := head[2]) is not None:
        bounds = parse_domain_overrides(header[len("@domain") :], lineno)
        if not bounds:
            raise ParseError("@domain header declares no attributes", lineno)
        domain = DomainSpec.of(*((name, lo, hi) for name, (lo, hi) in bounds.items()))
        lineno += 1
    domain = apply_domain_overrides(domain, domain_overrides)
    attrs = domain.attributes
    wholes = [(a.lo, a.hi) for a in attrs]  # shared by every "any"
    checks = [(a.lo, a.hi, whole, a) for a, whole in zip(attrs, wholes)]

    rules: list[Rule] = []
    last_key = (0, 0)  # below every valid order value
    for lineno, groups in enumerate(_line_re(domain.p).findall(text, head.end()), lineno):
        if record := groups[0]:
            major = int(record)
            key = (major, int(groups[1] or 0))
        else:
            line = groups[-1].strip()
            if not line or line[0] == "#":
                continue
            if line.startswith("@domain"):
                raise ParseError("@domain header must be the first non-comment line", lineno)
            fields = [f.strip() for f in _FIELD_SEP_RE.split(line)]
            if len(fields) != domain.p + 2:
                raise ParseError(
                    f"expected {domain.p + 2} fields (order, {domain.p} conditions, decision), got {len(fields)}",
                    lineno,
                )
            m = _ORDER_RE.match(fields[0])
            if not m:
                raise ParseError(f"bad order value {fields[0]!r}", lineno)
            try:
                major = int(m.group(1))
                key = (major, int(m.group(2) or 0))
            except ValueError:  # more digits than int() reads
                raise ParseError("order value has more digits than int() reads", lineno) from None
        if major < 1:
            raise ValidationError(f"line {lineno}: order must be >= 1")
        if key <= last_key:
            raise ValidationError(f"line {lineno}: order values must be strictly increasing")
        last_key = key
        if record:
            decision = _DECISIONS[groups[-2]]
            box = []
            values = iter(groups[2:-2])
            for (lo, hi, whole, attr), value, a, b in zip(checks, values, values, values):
                if value:
                    a = b = int(value)
                elif a:
                    a, b = int(a), int(b)
                else:
                    box.append(whole)
                    continue
                box.append((a, b) if lo <= a <= b <= hi else _interval(a, b, attr, lineno))
            box = tuple(box)
        else:
            try:
                decision = Decision(fields[-1].lower())
            except ValueError:
                raise ParseError(f"bad decision {fields[-1]!r} (want accept or deny)", lineno) from None
            box = tuple(map(_parse_value, fields[1:-1], attrs, wholes, repeat(lineno)))
        if rules and rules[-1].position == major:
            # a sub-record: one more box of the rule before it
            prev = rules[-1]
            if prev.decision is not decision:
                raise ValidationError(
                    f"line {lineno}: records of rule {major} disagree on the decision"
                )
            if any(box_intersects(box, b) for b in prev.condition):
                raise ValidationError(
                    f"line {lineno}: record overlaps an earlier record of rule {major}"
                )
            rules[-1] = Rule(major, prev.condition + (box,), decision)
        else:
            rules.append(Rule(major, (box,), decision))
    return Ruleset(domain, tuple(rules))


# str.splitlines breaks a line at each of these, and "\r\n" counts as one
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_EOL = rf"(?:\r\n|[{_BREAKS}])"
# whitespace that breaks no line: with the breaks, what str.strip() removes
_SPACE = rf"[^\S{_BREAKS}]"
# a sign and at most 640 ASCII digits: int() reads them under any digit
# limit sys.set_int_max_str_digits accepts
_INT = r"(-?[0-9]{1,640})"
_DECISIONS = {d.value: d for d in Decision}


def _line_re(p: int) -> re.Pattern[str]:
    """One line of a file with ``p`` attributes: a record as
    ``serialize_ruleset`` writes it, or else any line.  A record's groups
    are the order value's two parts, then per attribute a single value's
    integer and a range's two (all empty for ``any``), then the decision;
    the last group, empty for a record, holds any other line."""
    token = rf"(?:any|{_INT}|\[{_INT},{_INT}\])"
    order = r"([0-9]{1,640})(?:\.([0-9]{1,640}))?"
    tokens = ", ".join([token] * p)
    return re.compile(rf"{order}, {tokens}, (accept|deny){_EOL}|([^{_BREAKS}]*){_EOL}")


def _format_interval(iv: tuple[int, int], attr: AttributeDomain) -> str:
    lo, hi = iv
    if lo == attr.lo and hi == attr.hi:
        return "any"
    if lo == hi:
        return str(lo)
    return f"[{lo},{hi}]"


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
            toks = map(_format_interval, box, ruleset.domain.attributes)
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
                    "condition": r.condition,
                }
                for r in self.rules
            ],
            "stats": asdict(self.stats),
        }
        return json.dumps(doc) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ReportDocument:
        """Read ``to_json`` output back; malformed input raises ParseError."""
        try:
            doc = json.loads(text)
            if doc["version"] != REPORT_SCHEMA_VERSION:
                raise ParseError(f"unsupported report version {doc['version']!r}")
            st = doc["stats"]
            domain = DomainSpec.of(
                *((_typed(a["name"], str), *_ints((a["lo"], a["hi"]))) for a in doc["domain"])
            )
            # Ruleset checks each box against the domain and the order values
            ruleset = Ruleset(domain, tuple(
                Rule(
                    _typed(r["order"], int),
                    tuple(tuple(map(_ints, box)) for box in r["condition"]),
                    Decision(r["decision"]),
                )
                for r in doc["rules"]
            ))
            if not all(r.condition and boxes_pairwise_disjoint(r.condition) for r in ruleset.rules):
                raise ValueError("a rule has no boxes, or boxes that overlap")
            if doc["algorithm"] not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {doc['algorithm']!r}")
            warnings = tuple(
                RuleWarning(_typed(w["rule"], int), WarningKind(w["kind"])) for w in doc["warnings"]
            )
            stats = AuditStats(
                *_ints((st["input_rules"], st["output_rules"], st["output_boxes"])),
                _typed(st["elapsed_ms"], int, float),
            )
            # an audit warns at most once per input rule, in position order
            positions = [0] + [w.position for w in warnings]
            if not (stats.output_rules == len(ruleset.rules) <= stats.input_rules
                    and stats.output_boxes == ruleset.total_boxes()
                    and 0 <= stats.elapsed_ms < math.inf
                    and len(warnings) <= stats.input_rules
                    and all(a < b for a, b in zip(positions, positions[1:]))):
                raise ValueError(f"stats {st} or warnings contradict the document")
            return cls(
                tool_version=_typed(doc["tool_version"], str),
                algorithm=doc["algorithm"],
                input_digest=_typed(doc.get("input_digest"), str, type(None)),
                domain=domain,
                warnings=warnings,
                rules=ruleset.rules,
                stats=stats,
            )
        except (KeyError, TypeError, ValueError, ArityError, DomainError) as e:
            # json.JSONDecodeError is a ValueError
            raise ParseError(f"bad report JSON: {e!r}") from None


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
