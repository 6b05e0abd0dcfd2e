import ipaddress
import json

import pytest
from hypothesis import given, settings, strategies as st

from fwaudit import (
    DomainError,
    DomainSpec,
    Interval,
    ParseError,
    Ruleset,
    ValidationError,
    complete_detection,
    detection,
    emit_report,
    equivalent,
    parse_ruleset,
    report_from_json,
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
        assert rs.rules[0].condition[0] == rs.domain.full_box()

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
        assert report_from_json(emitted) == ReportDocument.from_report(report, digest)

    @pytest.mark.parametrize("mutate", [
        lambda doc: {"version": 1},
        lambda doc: [doc],
        lambda doc: {k: v for k, v in doc.items() if k != "stats"},
        lambda doc: {**doc, "rules": [{**doc["rules"][0], "order": "1"}]},
        lambda doc: {**doc, "rules": [{**doc["rules"][0], "condition": [[["1", "2"]]]}]},
        lambda doc: {**doc, "domain": [{**doc["domain"][0], "lo": True}, *doc["domain"][1:]]},
        lambda doc: {**doc, "warnings": [{"rule": 2, "kind": "odd"}]},
        lambda doc: {**doc, "stats": {**doc["stats"], "elapsed_ms": "fast"}},
    ])
    def test_malformed_json_report_is_parse_error(self, mutate):
        report, text = self._report()
        doc = json.loads(emit_report(report, "json", digest=input_digest(text)))
        with pytest.raises(ParseError):
            report_from_json(json.dumps(mutate(doc)))

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
