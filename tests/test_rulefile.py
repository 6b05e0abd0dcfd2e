import ipaddress
import json
import re
import sys

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
from fwaudit.rulefile import ReportDocument, input_digest, parse_domain_overrides

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
        rs = parse_ruleset("# heading\n\n1, any, any, any, any, any, accept\n# trailing\n")
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
