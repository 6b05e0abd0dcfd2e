import ipaddress
import json
import re
import sys
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from fwaudit import (
    Box,
    DomainError,
    DomainSpec,
    FwAuditError,
    Interval,
    ParseError,
    Ruleset,
    ValidationError,
    complete_detection,
    detection,
    emit_report,
    equivalent,
    parse_ruleset,
    serialize_ruleset,
)
from fwaudit import rulefile
from fwaudit.intervals import box_intersects
from fwaudit.rulefile import (
    PROTOCOL_NAMES,
    ReportDocument,
    apply_domain_overrides,
    input_digest,
    parse_domain_overrides,
)
from fwaudit.rules import Decision, Rule

from conftest import FIXTURES, rule


class TestParse:
    def test_paper_style_record(self):
        rs = parse_ruleset(
            "@domain protocol=[0,0], source=[1,100], sport=[0,0], destination=[1,100], dport=[0,0]\n"
            "1, any, [1,30], any, [20,45], any, deny\n"
        )
        (r,) = rs.rules
        assert r.position == 1
        assert r.decision.value == "deny"
        box = r.condition[0]
        assert box.intervals[1] == Interval(1, 30)
        assert box.intervals[3] == Interval(20, 45)
        # unconstrained attributes span their whole (point) domains
        assert box.intervals[0] == Interval(0, 0)
        assert box.intervals[2] == Interval(0, 0)

    def test_full_any_rule_default_domain(self):
        rs = parse_ruleset("1, any, any, any, any, any, accept\n")
        assert rs.domain == DomainSpec.five_tuple()
        full = Box(tuple(Interval(a.lo, a.hi) for a in rs.domain.attributes))
        assert rs.rules[0].condition[0] == full

    def test_dotted_quads_and_protocol_names(self):
        rs = parse_ruleset("1, tcp, 10.0.0.[1,30], any, 10.0.0.7, 80, accept\n")
        box = rs.rules[0].condition[0]
        # independent conversion through the stdlib ip machinery
        lo = int(ipaddress.ip_address("10.0.0.1"))
        hi = int(ipaddress.ip_address("10.0.0.30"))
        host = int(ipaddress.ip_address("10.0.0.7"))
        assert box.intervals[0] == Interval(6, 6)
        assert box.intervals[1] == Interval(lo, hi)
        assert (lo, hi) == (167772161, 167772190)
        assert box.intervals[3] == Interval(host, host)
        assert box.intervals[4] == Interval(80, 80)

    def test_udp_icmp_names(self):
        rs = parse_ruleset("1, udp, any, any, any, any, deny\n2, icmp, any, any, any, any, deny\n")
        assert rs.rules[0].condition[0].intervals[0] == Interval(17, 17)
        assert rs.rules[1].condition[0].intervals[0] == Interval(1, 1)

    def test_comments_and_blank_lines(self):
        rs = parse_ruleset("# heading\n \t# indented\n\n1, any, any, any, any, any, accept\n"
                           "\t# indented\n# trailing\n")
        assert len(rs.rules) == 1

    def test_whitespace_tolerant(self):
        a = parse_ruleset("1,any,[1,30],any,[20,45],any,deny\n")
        b = parse_ruleset("  1 ,  any , [ 1 , 30 ] , any , [20,45] ,  any ,  DENY \n")
        assert a == b

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as err:
            parse_ruleset("1, any, any, any, any, any, accept\n2, any, what, any, any, any, deny\n")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_first_bad_line_is_reported(self):
        # the order error on line 2 comes before the bad token on line 5
        text = "".join(
            f"{order}, any, {token}, any, any, any, accept\n"
            for order, token in [(1, "any"), (1, "any"), (2, "any"), (3, "any"), (4, "what")]
        )
        with pytest.raises(FwAuditError, match="^line 2: "):
            parse_ruleset(text)

    def test_overlapping_sub_records_rejected(self):
        # sub-records re-assemble one rule, whose boxes must be disjoint
        text = (
            "@domain a=[0,9], b=[0,9]\n"
            "1.1, [0,5], [0,5], accept\n"
            "1.2, [3,8], [3,8], accept\n"
            "2, any, any, deny\n"
        )
        with pytest.raises(ValidationError, match="^line 3: "):
            parse_ruleset(text)
        touching = text.replace("[3,8], [3,8]", "[6,8], [3,8]")
        assert len(parse_ruleset(touching).rules[0].condition) == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_ruleset("1, any, any, accept\n")

    def test_inverted_range_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse_ruleset("1, any, [30,1], any, any, any, deny\n")

    def test_out_of_domain_value(self):
        with pytest.raises(DomainError):
            parse_ruleset(
                "@domain protocol=[0,0], source=[1,100], sport=[0,0], destination=[1,100], dport=[0,0]\n"
                "1, any, [90,120], any, any, any, deny\n"
            )

    # source spans 10.0.0.0-10.0.0.15
    NARROW = "@domain protocol=[0,6], source=[167772160,167772175], dport=[80,90]\n"

    @pytest.mark.parametrize("record, attr", [
        ("1, any, any, 91, deny", "dport"),
        ("1, any, any, [85,95], deny", "dport"),
        ("1, any, 10.0.0.16, any, deny", "source"),
        ("1, any, 10.0.0.[10,20], any, deny", "source"),
        ("1, udp, any, any, deny", "protocol"),
    ])
    def test_every_token_form_is_domain_checked(self, record, attr):
        with pytest.raises(DomainError, match=rf"^line 2: \[\d+,\d+\] outside attribute {attr} "):
            parse_ruleset(self.NARROW + record + "\n")

    @pytest.mark.parametrize("record, attr", [
        ("1, any, any, [100,95], deny", "dport"),
        ("1, any, 10.0.0.[20,16], any, deny", "source"),
    ])
    def test_inverted_forms_fail_before_the_domain_check(self, record, attr):
        # each range also leaves the domain; the inverted range is reported
        with pytest.raises(ValidationError, match=rf"^line 2: inverted range .* on attribute {attr}$"):
            parse_ruleset(self.NARROW + record + "\n")

    SIGNED = "@domain n=[-10,2000]\n1, 7, accept\n"

    @pytest.mark.parametrize("token", ["+5", "1_000", "+0"])
    def test_single_value_takes_the_range_integer_grammar(self, token):
        # -?\d+, as inside [a,b], where a sign or a separator never parsed
        message = rf"^line 3: bad condition value '{re.escape(token)}' for attribute n$"
        with pytest.raises(ParseError, match=message):
            parse_ruleset(self.SIGNED + f"2, {token}, deny\n")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() reads integers of any length here")
    @pytest.mark.parametrize("token", ["9" * 5000, f"[{'9' * 5000},1]", f"10.0.0.{'9' * 5000}"],
                             ids=["value", "range", "octet"])
    def test_integer_longer_than_int_reads_is_a_parse_error(self, token):
        # int() refuses more digits than sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match=r"^line 3: bad condition value '"):
            parse_ruleset(self.SIGNED + f"2, {token}, deny\n")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() reads integers of any length here")
    @pytest.mark.parametrize("order", ["1" + "0" * 5000, "2." + "0" * 5000],
                             ids=["value", "sub-index"])
    def test_order_longer_than_int_reads_is_a_parse_error(self, order):
        message = r"^line 3: order value has more digits than int\(\) reads$"
        with pytest.raises(ParseError, match=message):
            parse_ruleset(self.SIGNED + f"{order}, 7, deny\n")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() reads integers of any length here")
    def test_domain_bound_longer_than_int_reads_is_a_parse_error(self):
        bounds = f"n=[0,{'9' * 5000}]"
        message = r"domain bound of n has more digits than int\(\) reads$"
        with pytest.raises(ParseError, match="^line 1: " + message):
            parse_ruleset(f"@domain {bounds}\n1, 7, accept\n")
        with pytest.raises(ParseError, match="^" + message):
            parse_domain_overrides(bounds)

    @pytest.mark.parametrize("token, value", [("-0", 0), ("-7", -7), ("٥", 5), ("-٥", -5)])
    def test_signed_and_unicode_digit_values_parse(self, token, value):
        rs = parse_ruleset(self.SIGNED + f"2, {token}, deny\n")
        assert rs.rules[1].condition == (Box((Interval(value, value),)),)

    def test_bad_decision(self):
        with pytest.raises(ParseError):
            parse_ruleset("1, any, any, any, any, any, drop\n")

    def test_orders_must_increase(self):
        text = "2, any, any, any, any, any, accept\n1, any, any, any, any, any, deny\n"
        with pytest.raises(ValidationError):
            parse_ruleset(text)

    def test_duplicate_order_rejected(self):
        text = "1, any, any, any, any, any, accept\n1, any, any, any, any, any, deny\n"
        with pytest.raises(ValidationError):
            parse_ruleset(text)

    def test_header_after_rules_rejected(self):
        text = "1, any, any, any, any, any, accept\n@domain s=[0,9]\n"
        with pytest.raises(ParseError):
            parse_ruleset(text)

    def test_domain_overrides(self):
        rs = parse_ruleset(
            "1, any, any, any, any, any, accept\n",
            domain_overrides={"source": (1, 100), "destination": (1, 100)},
        )
        assert rs.domain.attributes[1].hi == 100
        assert rs.rules[0].condition[0].intervals[1] == Interval(1, 100)
        for bad in ("source=[1,100], source=[1,100]", "source=[100,1]"):
            with pytest.raises(ValidationError):
                parse_domain_overrides(bad)
            with pytest.raises(ValidationError, match="line 2"):
                parse_ruleset(f"# header follows\n@domain {bad}\n")

    def test_unknown_override_rejected(self):
        with pytest.raises(DomainError):
            parse_ruleset("1, any, any, any, any, any, accept\n", domain_overrides={"nope": (0, 1)})

    def test_parse_domain_overrides_string(self):
        got = parse_domain_overrides("source=[1,100], destination=[1,100]")
        assert got == {"source": (1, 100), "destination": (1, 100)}


# The per-line parser as it stood before parse_ruleset read records in one
# scan, with only its order value's digit check added since: the reference
# the scan is compared against.
_REF_ORDER_RE = re.compile(r"^(\d+)(?:\.(\d+))?$")
_REF_RANGE_RE = re.compile(r"^\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]$")
_REF_QUAD_RE = re.compile(r"^(\d+)\.(\d+)\.(\d+)\.(?:(\d+)|\[\s*(\d+)\s*,\s*(\d+)\s*\])$")
_REF_FIELD_SEP_RE = re.compile(r",(?![^\[]*\])")


def _reference_value(token, attr, whole, line):
    if token == "any":
        return whole
    try:
        if attr.name == "protocol" and token.lower() in PROTOCOL_NAMES:
            a = b = PROTOCOL_NAMES[token.lower()]
        elif token.removeprefix("-").isdecimal():
            a = b = int(token)
        elif m := _REF_RANGE_RE.match(token):
            a, b = int(m.group(1)), int(m.group(2))
        elif m := _REF_QUAD_RE.match(token):
            *net, last, lo, hi = m.groups()
            octets = [int(x) for x in (*net, last or lo, last or hi)]
            for o in octets:
                if o > 255:
                    raise ValidationError(f"line {line}: IPv4 octet {o} out of range")
            base = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8)
            a, b = base + octets[3], base + octets[4]
        else:
            raise ValueError
    except ValueError:
        raise ParseError(f"bad condition value {token!r} for attribute {attr.name}", line) from None
    if a > b:
        raise ValidationError(f"line {line}: inverted range [{a},{b}] on attribute {attr.name}")
    if a < attr.lo or b > attr.hi:
        raise DomainError(
            f"line {line}: [{a},{b}] outside attribute {attr.name} [{attr.lo},{attr.hi}]"
        )
    return Interval(a, b)


def _reference_parse(text, domain_overrides=None):
    lines = [
        (lineno, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    ]
    domain = DomainSpec.five_tuple()
    if lines and lines[0][1].startswith("@domain"):
        lineno, header = lines.pop(0)
        bounds = parse_domain_overrides(header[len("@domain") :], lineno)
        if not bounds:
            raise ParseError("@domain header declares no attributes", lineno)
        domain = DomainSpec.of(*((name, lo, hi) for name, (lo, hi) in bounds.items()))
    domain = apply_domain_overrides(domain, domain_overrides)
    wholes = [Interval(a.lo, a.hi) for a in domain.attributes]
    rules = []
    last_key = (0, 0)
    for lineno, line in lines:
        if line.startswith("@domain"):
            raise ParseError("@domain header must be the first non-comment line", lineno)
        fields = [f.strip() for f in _REF_FIELD_SEP_RE.split(line)]
        if len(fields) != domain.p + 2:
            raise ParseError(
                f"expected {domain.p + 2} fields (order, {domain.p} conditions, decision), got {len(fields)}",
                lineno,
            )
        m = _REF_ORDER_RE.match(fields[0])
        if not m:
            raise ParseError(f"bad order value {fields[0]!r}", lineno)
        try:
            major, minor = int(m.group(1)), int(m.group(2) or 0)
        except ValueError:
            raise ParseError("order value has more digits than int() reads", lineno) from None
        if major < 1:
            raise ValidationError(f"line {lineno}: order must be >= 1")
        if (major, minor) <= last_key:
            raise ValidationError(f"line {lineno}: order values must be strictly increasing")
        last_key = (major, minor)
        try:
            decision = Decision(fields[-1].lower())
        except ValueError:
            raise ParseError(f"bad decision {fields[-1]!r} (want accept or deny)", lineno) from None
        box = Box(map(_reference_value, fields[1:-1], domain.attributes, wholes, repeat(lineno)))
        if rules and rules[-1].position == major:
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


def _outcome(parse, text, overrides):
    try:
        return parse(text, domain_overrides=overrides)
    except FwAuditError as e:
        return type(e), str(e)


LONG = "9" * 5000  # more digits than int() reads by default
# (name, lo, hi): "protocol" takes names, "addr" dotted quads
NARROW = [("protocol", 0, 20), ("x", -5, 40), ("addr", 167772160, 167772415)]
FIVE = [(a.name, a.lo, a.hi) for a in DomainSpec.five_tuple().attributes]


# the ways a generated text departs from what serialize_ruleset writes
ODD_KINDS = ["header", "bound", "inverted", "form", "bad token", "order", "overlap", "arity",
             "decision", "separator", "skipped", "later", "break", "pad", "lead", "end"]


@st.composite
def _rule_texts(draw):
    """Rule-file texts as serialize_ruleset writes them, with a drawn set of
    departures (hand-written forms, other line breaks, bad lines) mixed in
    at a drawn rate."""
    kinds = draw(st.sets(st.sampled_from(ODD_KINDS), max_size=2))
    rate = draw(st.sampled_from([0.05, 0.2, 0.5]))

    def odd(kind):
        return kind in kinds and draw(st.floats(0, 1)) < rate

    if draw(st.booleans()):
        attrs = FIVE
        header = "" if draw(st.booleans()) else "@domain " + ", ".join(
            f"{n}=[{lo},{hi}]" for n, lo, hi in FIVE)
    else:
        attrs = NARROW[: draw(st.integers(1, 3))]
        header = "@domain " + ", ".join(f"{n}=[{lo},{hi}]" for n, lo, hi in attrs)
    if odd("header"):
        header = draw(st.sampled_from([header + " ", " " + header, "@domain ", header + ", x=[3,1]"]))

    def value(lo, hi):
        if odd("bound"):
            return draw(st.sampled_from([lo - 1, hi + 1]))
        return draw(st.integers(lo, min(hi, lo + 60)))  # near lo, so that ranges overlap

    def token(name, lo, hi):
        if odd("form"):  # hand-written forms, valid where the attribute takes them
            forms = {"protocol": ["tcp", "UDP", "icmp"], "addr": ["10.0.0.7", "10.0.0.[1,30]"]}
            forms["source"] = forms["destination"] = forms["addr"]
            return draw(st.sampled_from([f"[ {lo} , {lo + 1} ]", "٥", f"{lo:07d}", *forms.get(name, [])]))
        if odd("bad token"):
            return draw(st.sampled_from([
                "tcp", "10.0.0.7", "10.0.0.[30,1]", "10.0.0.300", "-٥", "+5", "what", LONG,
                f"[{LONG},1]", "",
            ]))
        kind = draw(st.sampled_from(["any", "value", "range"]))
        if kind == "any":
            return "any"
        a, b = sorted((value(lo, hi), value(lo, hi)))
        if kind == "value":
            return str(a)
        return f"[{b},{a}]" if a < b and odd("inverted") else f"[{a},{b}]"

    lines = [header] if header else []
    major = 0
    for _ in range(draw(st.integers(0, 8))):
        if odd("skipped"):
            lines.append(draw(st.sampled_from(["", "   ", "# note", "\t# note, 1, 2", "#"])))
        major += draw(st.integers(-1, 0)) if odd("order") else draw(st.integers(1, 3))
        boxes = draw(st.integers(1, 3))
        decision = draw(st.sampled_from(["accept", "deny"]))
        for k in range(1, boxes + 1):
            order = str(major) if boxes == 1 else f"{major}.{k}"
            if odd("order"):
                order = draw(st.sampled_from(["0", f"{major}.", f"{major}.{k}.1", "1" + LONG, "٣", f" {major}"]))
            toks = [token(*a) for a in attrs]
            if boxes > 1 and not odd("overlap"):  # sub-records differ on their first attribute
                toks[0] = str(attrs[0][1] + k)
            if odd("arity"):
                toks = toks[:-1] if draw(st.booleans()) else toks + ["any"]
            dec = decision
            if odd("decision"):
                dec = draw(st.sampled_from(["DENY", "drop", "accept", "deny"]))
            sep = draw(st.sampled_from([",", " , ", ",  "])) if odd("separator") else ", "
            lines.append(sep.join([order, *toks, dec]))
        if odd("later"):
            lines.append(draw(st.sampled_from(["@domain x=[0,9]", "# a\u2028" + lines[-1]])))
    breaks = [draw(st.sampled_from(["\r\n", "\x0c", "\u2028", "\r", " "])) if odd("break") else "\n"
              for _ in lines]
    pads = [(" " if odd("pad") else "") for _ in range(2 * len(lines))]
    text = "".join(pads[2 * i] + line + pads[2 * i + 1] + brk
                   for i, (line, brk) in enumerate(zip(lines, breaks)))
    if odd("lead"):
        text = draw(st.sampled_from(["# leading comment\n", "\n", "  \n# c\n", "\xa0\n"])) + text
    if odd("end"):
        text = text.rstrip("\n")
    return text


# records in the form serialize_ruleset writes that a check refuses; each
# fails on the line that holds it, after any kind of line break
BAD_RECORDS = {
    "decisions": "1.1, 1, any, deny\n1.2, 2, any, accept\n",
    "overlap": "1.1, [0,5], any, deny\n1.2, [3,8], any, deny\n",
    "order 0": "0, any, any, deny\n",
    "order down": "2, any, any, deny\n1, any, any, deny\n",
    "inverted": "1, [5,3], any, deny\n",
    "above": "1, any, 10, deny\n",
    "below": "1, [-1,3], any, deny\n",
    "long value": f"1, {LONG}, any, deny\n",
    "long order": f"{LONG}, any, any, deny\n",
}
BREAKS = {"\n": "", "\r\n": " CRLF", "\x0c": " FF", "\u2028": " LS"}


class TestScan:
    """parse_ruleset scans the text once: records as serialize_ruleset
    writes them come out split into their tokens, and every other line is
    split in the loop.  Either way it must give what the reference
    per-line parser gives: the same Ruleset, or the same error on the
    same line."""

    @settings(max_examples=300, deadline=None)
    @given(text=_rule_texts(),
           overrides=st.sampled_from([None, None, None, None, {"x": (-3, 30)}, {"nope": (0, 1)}]))
    def test_parse_equals_the_per_line_parser(self, text, overrides):
        assert _outcome(parse_ruleset, text, overrides) == _outcome(_reference_parse, text, overrides)

    @pytest.mark.parametrize("records, brk", [
        pytest.param(records, brk, id=name + suffix)
        for name, records in BAD_RECORDS.items() for brk, suffix in BREAKS.items()
    ])
    def test_a_record_the_scan_refuses_fails_as_line_by_line(self, records, brk):
        text = ("@domain a=[0,9], b=[0,9]\n# c\n" + records + "9, any, any, accept\n").replace("\n", brk)
        assert isinstance(failed := _outcome(parse_ruleset, text, None), tuple)
        assert failed == _outcome(_reference_parse, text, None)

    def test_the_scan_reads_tool_written_files_with_comments(self):
        text = (FIXTURES / "table1.rules").read_text()
        lines = text.splitlines()
        annotated = "# audited\n\n" + lines[0] + "\n" + "".join(
            f"{line}\n\n# after {line[:3]}\n" for line in lines[1:])
        for t in (text, annotated, text.rstrip("\n")):
            assert parse_ruleset(t) == _reference_parse(t)

    @pytest.mark.parametrize("brk", BREAKS, ids=["LF", "CRLF", "FF", "LS"])
    def test_records_after_any_break_are_not_split_again(self, brk, monkeypatch):
        text = (FIXTURES / "table1.rules").read_text()
        expected = parse_ruleset(text)

        def split_again(*args):
            raise AssertionError("a record as serialize_ruleset writes it was split token by token")

        monkeypatch.setattr(rulefile, "_parse_value", split_again)
        assert parse_ruleset(text.replace("\n", brk)) == expected

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\u2028"),
        lambda t: t.replace("any", " any"),
        lambda t: t.replace("deny", "DENY"),
        lambda t: t.replace("# ", "# \x0c# "),  # \x0c breaks the comment in two
        lambda t: "\xa0" + t,
    ])
    def test_the_scan_hands_other_forms_over(self, edit):
        text = "# c\n" + (FIXTURES / "table1.rules").read_text()
        assert parse_ruleset(edit(text)) == parse_ruleset(text) == _reference_parse(edit(text))


class TestSerialize:
    def test_fixture_round_trips_byte_identically(self):
        text = (FIXTURES / "table1.rules").read_text()
        rs = parse_ruleset(text)
        assert serialize_ruleset(rs) == text

    def test_multi_box_rule_uses_subindexed_orders(self):
        text = (FIXTURES / "table1.rules").read_text()
        transformed = detection(parse_ruleset(text)).transformed
        out = serialize_ruleset(transformed)
        lines = out.splitlines()
        orders = [line.split(",")[0] for line in lines[1:]]
        assert orders == ["1", "2", "3.1", "3.2", "3.3", "5.1", "5.2"]
        # and the sub-indexed form re-assembles into the same ruleset
        assert parse_ruleset(out) == transformed

    def test_empty_ruleset_serializes_to_header_only(self):
        rs = Ruleset(DomainSpec.five_tuple(), ())
        out = serialize_ruleset(rs)
        assert out.startswith("@domain ")
        assert len(out.splitlines()) == 1
        assert parse_ruleset(out) == rs

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_identity_and_equivalent(self, data):
        dom = DomainSpec.of(("s", 0, 31), ("d", 0, 31))
        n = data.draw(st.integers(1, 6))
        rules = []
        for k in range(1, n + 1):
            pairs = []
            for _ in range(2):
                lo = data.draw(st.integers(0, 31))
                pairs.append((lo, data.draw(st.integers(lo, 31))))
            decision = data.draw(st.sampled_from(["accept", "deny"]))
            rules.append(rule(k, decision, tuple(pairs)))
        rs = Ruleset(dom, tuple(rules))
        back = parse_ruleset(serialize_ruleset(rs))
        assert back == rs
        assert equivalent(rs, back)


class TestReports:
    def _report(self):
        text = (FIXTURES / "table1.rules").read_text()
        return complete_detection(parse_ruleset(text)), text

    def test_text_report_names_warnings(self):
        report, _ = self._report()
        out = emit_report(report, "text")
        assert "R2: redundancy" in out
        assert "R4: shadowing" in out

    def test_text_report_without_warnings(self):
        rs = parse_ruleset("1, any, any, any, any, any, accept\n")
        out = emit_report(detection(rs), "text")
        assert "warnings: none" in out

    def test_json_round_trip_equals_in_memory_document(self):
        report, text = self._report()
        digest = input_digest(text)
        emitted = emit_report(report, "json", digest=digest)
        assert ReportDocument.from_json(emitted) == ReportDocument.from_report(report, digest)

    @pytest.mark.parametrize("mutate", [
        lambda doc: {"version": 1},
        lambda doc: [doc],
        lambda doc: {k: v for k, v in doc.items() if k != "stats"},
        lambda doc: {**doc, "rules": [{**doc["rules"][0], "order": "1"}]},
        lambda doc: {**doc, "rules": [{**doc["rules"][0], "condition": [[["1", "2"]]]}]},
        lambda doc: {**doc, "domain": [{**doc["domain"][0], "lo": True}, *doc["domain"][1:]]},
        lambda doc: {**doc, "warnings": [{"rule": 2, "kind": "odd"}]},
        lambda doc: {**doc, "stats": {**doc["stats"], "elapsed_ms": "fast"}},
        # a box outside the declared domain
        lambda doc: {**doc, "rules": [
            {**doc["rules"][0], "condition": [[[0, 10**30], *doc["rules"][0]["condition"][0][1:]]]}
        ]},
        # a box with one attribute too few
        lambda doc: {**doc, "rules": [
            {**doc["rules"][0], "condition": [doc["rules"][0]["condition"][0][1:]]}
        ]},
        # a repeated order value
        lambda doc: {**doc, "rules": [doc["rules"][0], doc["rules"][0]]},
        # a rule whose boxes overlap each other
        lambda doc: {**doc, "rules": [
            {**doc["rules"][0], "condition": doc["rules"][0]["condition"] * 2}, *doc["rules"][1:]
        ]},
        # stats that contradict the document
        lambda doc: {**doc, "stats": {**doc["stats"], "output_rules": 99}},
        lambda doc: {**doc, "stats": {**doc["stats"], "output_boxes": doc["stats"]["output_boxes"] + 1}},
        lambda doc: {**doc, "stats": {**doc["stats"], "input_rules": doc["stats"]["output_rules"] - 1}},
        lambda doc: {**doc, "stats": {**doc["stats"], "elapsed_ms": -1.0}},
        lambda doc: {**doc, "stats": {**doc["stats"], "elapsed_ms": float("inf")}},
        lambda doc: {**doc, "stats": {**doc["stats"], "elapsed_ms": float("nan")}},
        # warnings an audit cannot emit: a position below 1, one position
        # twice, positions out of order, more warnings than input rules
        lambda doc: {**doc, "warnings": [{"rule": -3, "kind": "shadowing"}]},
        lambda doc: {**doc, "warnings": [*doc["warnings"], doc["warnings"][-1]]},
        lambda doc: {**doc, "warnings": doc["warnings"][::-1]},
        lambda doc: {**doc, "warnings": [{"rule": k, "kind": "shadowing"} for k in range(1, 7)]},
        # a rule with no boxes, which an audit drops
        lambda doc: {**doc, "rules": [*doc["rules"], {"order": 9, "decision": "deny", "condition": []}],
                     "stats": {**doc["stats"], "output_rules": doc["stats"]["output_rules"] + 1}},
        lambda doc: {**doc, "algorithm": "bogus"},
        # an inverted pair inside the source attribute's bounds
        lambda doc: {**doc, "rules": [
            {**doc["rules"][0], "condition": [[[0, 0], [5, 3], *doc["rules"][0]["condition"][0][2:]]]},
            *doc["rules"][1:],
        ]},
    ])
    def test_malformed_json_report_is_parse_error(self, mutate):
        report, text = self._report()
        doc = json.loads(emit_report(report, "json", digest=input_digest(text)))
        with pytest.raises(ParseError):
            ReportDocument.from_json(json.dumps(mutate(doc)))

    def test_json_shape(self):
        report, text = self._report()
        doc = json.loads(emit_report(report, "json", digest=input_digest(text)))
        assert doc["version"] == 1
        assert doc["algorithm"] == "complete"
        assert doc["warnings"] == [
            {"rule": 2, "kind": "redundancy"},
            {"rule": 4, "kind": "shadowing"},
        ]
        assert doc["input_digest"].startswith("sha256:")
        assert {r["order"] for r in doc["rules"]} == {1, 3, 5}
        assert set(doc["stats"]) == {"input_rules", "output_rules", "output_boxes", "elapsed_ms"}

    def test_unknown_format_rejected(self):
        report, _ = self._report()
        with pytest.raises(ValueError):
            emit_report(report, "yaml")
