import hashlib
import io
import json
import re
import sys

import pytest

from fwaudit import complete_detection, parse_ruleset, serialize_ruleset
from fwaudit.cli import main

from conftest import FIXTURES

TABLE1 = FIXTURES / "table1.rules"


def run(*args, stdin: str | None = None, capsys=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    return main([str(a) for a in args])


class TestAudit:
    def test_complete_audit_reports_and_exits_1(self, capsys):
        code = main(["audit", str(TABLE1), "--algorithm", "complete"])
        out = capsys.readouterr().out
        assert code == 1
        assert "R2: redundancy" in out
        assert "R4: shadowing" in out

    def test_detection_audit(self, capsys):
        code = main(["audit", str(TABLE1), "--algorithm", "detection"])
        out = capsys.readouterr().out
        assert code == 1
        assert "R4: shadowing" in out
        assert "redundancy" not in out

    def test_clean_ruleset_exits_0(self, tmp_path, capsys):
        f = tmp_path / "clean.rules"
        f.write_text("1, any, [1,30], any, any, any, accept\n2, any, [40,60], any, any, any, deny\n")
        assert main(["audit", str(f)]) == 0
        assert "warnings: none" in capsys.readouterr().out

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "bad.rules"
        f.write_text("1, any, any, accept\n")
        assert main(["audit", str(f)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["audit", "/nonexistent/x.rules"]) == 2

    def test_json_output_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["audit", str(TABLE1), "--format", "json", "--output", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == "complete"
        assert doc["input_digest"].startswith("sha256:")

    def test_crlf_file_digest_is_that_of_its_bytes(self, tmp_path):
        # the file is read as it is on disk; the parser takes the CRLF breaks
        docs = []
        for name, newline in (("lf.rules", b"\n"), ("crlf.rules", b"\r\n")):
            f = tmp_path / name
            f.write_bytes(TABLE1.read_bytes().replace(b"\n", newline))
            out = tmp_path / f"{name}.json"
            assert main(["audit", str(f), "--format", "json", "--output", str(out)]) == 1
            doc = json.loads(out.read_text())
            assert doc["input_digest"] == "sha256:" + hashlib.sha256(f.read_bytes()).hexdigest()
            docs.append({k: v for k, v in doc.items() if k not in ("input_digest", "stats")})
        assert docs[0] == docs[1]

    def test_stdin_input(self, capsys, monkeypatch):
        text = TABLE1.read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["audit", "-"]) == 1


class TestRewrite:
    def test_positive_rewrite(self, tmp_path, capsys):
        out = tmp_path / "pos.rules"
        assert main(["rewrite", str(TABLE1), "--mode", "positive", "--output", str(out)]) == 0
        body = out.read_text()
        assert "deny" not in body
        orders = [line.split(",")[0] for line in body.splitlines()[1:]]
        assert orders == ["3", "5"]

    def test_negative_rewrite(self, tmp_path):
        out = tmp_path / "neg.rules"
        assert main(["rewrite", str(TABLE1), "--mode", "negative", "--output", str(out)]) == 0
        orders = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert orders == ["1"]

    def test_empty_ruleset(self, tmp_path, capsys):
        f = tmp_path / "empty.rules"
        f.write_text("# nothing here\n")
        assert main(["rewrite", str(f), "--mode", "positive"]) == 0
        assert capsys.readouterr().out.startswith("@domain")


# Outputs recorded before the audits moved their hull tests onto numpy
# arrays: bounds beyond int64 must stay exact Python integers, and
# negative bounds must compare as signed values.
WIDE = FIXTURES / "wide-domain.rules"
NEGATIVE = FIXTURES / "negative-domain.rules"
WIDE_HEADER = "@domain a=[0,99999999999999999999999], b=[0,9]\n"
NEGATIVE_HEADER = "@domain a=[-100,100], b=[-5,5]\n"
UNUSUAL_DOMAIN_OUTPUTS = {
    (WIDE, "audit", "detection"): (1, (
        "audit: detection\n"
        "rules in: 5  rules out: 3  boxes out: 5  elapsed: 0 ms\n\n"
        "warnings:\n  R2: shadowing\n  R5: shadowing\n\n" + WIDE_HEADER +
        "1, [0,50000000000000000000000], [0,5], accept\n"
        "3.1, [50000000000000000000001,99999999999999999999999], [3,9], deny\n"
        "3.2, [40000000000000000000000,50000000000000000000000], [6,9], deny\n"
        "4.1, [50000000000000000000001,99999999999999999999999], [0,2], deny\n"
        "4.2, [0,39999999999999999999999], [6,9], deny\n")),
    (WIDE, "audit", "complete"): (1, (
        "audit: complete\n"
        "rules in: 5  rules out: 2  boxes out: 3  elapsed: 0 ms\n\n"
        "warnings:\n  R2: shadowing\n  R3: redundancy\n  R5: shadowing\n\n" + WIDE_HEADER +
        "1, [0,50000000000000000000000], [0,5], accept\n"
        "4.1, [50000000000000000000001,99999999999999999999999], any, deny\n"
        "4.2, [0,50000000000000000000000], [6,9], deny\n")),
    (WIDE, "rewrite", "positive"): (0, WIDE_HEADER + "1, [0,50000000000000000000000], [0,5], accept\n"),
    (WIDE, "rewrite", "negative"): (0, WIDE_HEADER +
        "4.1, [50000000000000000000001,99999999999999999999999], any, deny\n"
        "4.2, [0,50000000000000000000000], [6,9], deny\n"),
    (NEGATIVE, "audit", "detection"): (1, (
        "audit: detection\n"
        "rules in: 5  rules out: 3  boxes out: 6  elapsed: 0 ms\n\n"
        "warnings:\n  R2: shadowing\n  R5: shadowing\n\n" + NEGATIVE_HEADER +
        "1, [-100,0], [-5,0], accept\n"
        "3.1, [1,50], [0,5], deny\n"
        "3.2, [-20,0], [1,5], deny\n"
        "4.1, [51,100], any, accept\n"
        "4.2, [1,50], [-5,-1], accept\n"
        "4.3, [-100,-21], [1,5], accept\n")),
    (NEGATIVE, "audit", "complete"): (1, (
        "audit: complete\n"
        "rules in: 5  rules out: 3  boxes out: 6  elapsed: 0 ms\n\n"
        "warnings:\n  R2: shadowing\n  R5: shadowing\n\n" + NEGATIVE_HEADER +
        "1, [-100,0], [-5,0], accept\n"
        "3.1, [1,50], [0,5], deny\n"
        "3.2, [-20,0], [1,5], deny\n"
        "4.1, [-100,-21], [1,5], accept\n"
        "4.2, [51,100], any, accept\n"
        "4.3, [1,50], [-5,-1], accept\n")),
    (NEGATIVE, "rewrite", "positive"): (0, NEGATIVE_HEADER +
        "1, [-100,0], [-5,0], accept\n"
        "4.1, [-100,-21], [1,5], accept\n"
        "4.2, [51,100], any, accept\n"
        "4.3, [1,50], [-5,-1], accept\n"),
    (NEGATIVE, "rewrite", "negative"): (0, NEGATIVE_HEADER +
        "3.1, [1,50], [0,5], deny\n"
        "3.2, [-20,0], [1,5], deny\n"),
}


@pytest.mark.parametrize(
    "path, command, how", UNUSUAL_DOMAIN_OUTPUTS, ids=lambda v: getattr(v, "stem", v)
)
def test_unusual_domain_outputs_are_pinned(path, command, how, capsys):
    flag = "--algorithm" if command == "audit" else "--mode"
    code = main([command, str(path), flag, how])
    captured = capsys.readouterr()
    out = re.sub(r"elapsed: [0-9.]+ ms", "elapsed: 0 ms", captured.out)
    assert (code, out) == UNUSUAL_DOMAIN_OUTPUTS[path, command, how]
    assert "Traceback" not in captured.err


class TestCheck:
    def test_transform_is_equivalent(self, tmp_path, capsys):
        out = tmp_path / "audited.rules"
        main(["rewrite", str(TABLE1), "--mode", "positive", "--output", str(out)])
        # positive rewrite drops deny traffic: not equivalent three-valued
        assert main(["check", str(TABLE1), str(out)]) == 1

    def test_file_vs_itself(self, capsys):
        assert main(["check", str(TABLE1), str(TABLE1)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_deleted_rule_yields_counterexample(self, tmp_path, capsys):
        lines = TABLE1.read_text().splitlines()
        pruned = tmp_path / "pruned.rules"
        pruned.write_text("\n".join(line for line in lines if not line.startswith("1,")) + "\n")
        assert main(["check", str(TABLE1), str(pruned)]) == 1
        out = capsys.readouterr().out
        assert "NOT equivalent" in out
        assert "source=1" in out and "destination=20" in out

    def test_sampled_mode(self, tmp_path, capsys):
        assert main(["check", str(TABLE1), str(TABLE1), "--samples", "500", "--seed", "7"]) == 0

    def test_sampled_planted_five_tuple_difference(self, tmp_path, capsys):
        # files without a header use the five-tuple domain; the second file
        # lacks rule 2.  Recorded before the sampled oracle scanned only each
        # box's narrowest attribute range.
        rules = [
            "1, [0,15], [0,2147483647], any, any, [0,1023], deny",
            "2, [0,7], any, [1024,65535], [0,268435455], any, deny",
            "3, any, any, any, any, any, accept",
        ]
        original = _file(tmp_path / "original.rules", "\n".join(rules) + "\n")
        planted = _file(tmp_path / "planted.rules", "\n".join(rules[::2]) + "\n")
        assert main(["check", str(original), str(planted), "--samples", "100000", "--seed", "5"]) == 1
        assert capsys.readouterr().out == (
            "NOT equivalent (100000 samples (seed 5)); first differing packet: "
            "(protocol=0, source=2100801065, sport=47781, destination=102331474, dport=23965)\n"
        )

    def test_sampled_domain_wider_than_int64_exits_2(self, capsys):
        assert main(["check", str(WIDE), str(WIDE), "--samples", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: attribute a [0,99999999999999999999999] does not fit")
        assert "Traceback" not in err

    def test_domain_mismatch_exits_2(self, tmp_path, capsys):
        other = tmp_path / "other.rules"
        other.write_text("1, any, any, any, any, any, accept\n")
        assert main(["check", str(TABLE1), str(other)]) == 2

    def test_exhaustive_five_tuple(self, tmp_path, capsys):
        generated, audited = tmp_path / "gen.rules", tmp_path / "gen.audited"
        assert main(["gen", "--profile", "intermediate", "--count", "150", "--seed", "3",
                     "--output", str(generated)]) == 0
        ruleset = parse_ruleset(generated.read_text())
        audited.write_text(serialize_ruleset(complete_detection(ruleset).transformed))
        assert main(["check", str(generated), str(generated)]) == 0
        assert main(["check", str(generated), str(audited)]) == 0
        assert capsys.readouterr().out == "equivalent (exhaustive)\n" * 2
        # rule 1 loses dport 1023: every smaller packet still matches it,
        # and at dport 1023 rule 2 misses on sport and rule 3 accepts
        rules = [
            "1, [0,15], [0,2147483647], any, any, [0,1023], deny",
            "2, [0,7], any, [1024,65535], [0,268435455], any, deny",
            "3, any, any, any, any, any, accept",
        ]
        original = _file(tmp_path / "original.rules", "\n".join(rules) + "\n")
        rules[0] = rules[0].replace("[0,1023]", "[0,1022]")
        narrowed = _file(tmp_path / "narrowed.rules", "\n".join(rules) + "\n")
        assert main(["check", str(original), str(narrowed)]) == 1
        assert capsys.readouterr().out == (
            "NOT equivalent (exhaustive); first differing packet: "
            "(protocol=0, source=0, sport=0, destination=0, dport=1023)\n"
        )


class TestGen:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.rules", tmp_path / "b.rules"
        for path in (a, b):
            assert main(["gen", "--profile", "expert", "--count", "100", "--seed", "7",
                         "--output", str(path)]) == 0
        assert a.read_text() == b.read_text()

    def test_generated_file_parses_and_audits(self, tmp_path):
        f = tmp_path / "gen.rules"
        main(["gen", "--profile", "beginner", "--count", "30", "--seed", "1",
              "--output", str(f)])
        assert main(["audit", str(f)]) in (0, 1)

    def test_unknown_profile_exits_2(self, capsys):
        assert main(["gen", "--profile", "novice", "--count", "5"]) == 2

    def test_domain_flag(self, tmp_path):
        f = tmp_path / "small.rules"
        assert main(["gen", "--profile", "beginner", "--count", "5", "--seed", "2",
                     "--domain", "source=[0,63],destination=[0,63],protocol=[0,0],sport=[0,0],dport=[0,0]",
                     "--output", str(f)]) == 0
        assert "source=[0,63]" in f.read_text().splitlines()[0]
        assert main(["gen", "--profile", "beginner", "--count", "5",
                     "--domain", "bogus=[0,1]", "--output", str(f)]) == 2


class TestBenchCommand:
    def test_runs_plan_and_writes_csv(self, tmp_path):
        cfg = tmp_path / "plan.json"
        out = tmp_path / "bench.csv"
        cfg.write_text(json.dumps({
            "algorithms": ["detection"],
            "profiles": ["beginner", "expert"],
            "sizes": [20, 40],
            "seeds": 2,
            "output": str(out),
        }))
        assert main(["bench", "--config", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("algorithm,profile,n,p,seed")
        assert len(lines) == 1 + 2 * 2 * 2

    def test_worst_case_rows(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({
            "algorithms": ["detection"], "profiles": ["beginner"],
            "sizes": [], "seeds": 0, "worst_case": [[2, 2], [3, 2]],
        }))
        assert main(["bench", "--config", str(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3
        assert rows[1].split(",")[1] == "worstcase"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text("{not json")
        assert main(["bench", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("field, value", [("profiles", "beginner"), ("algorithms", "complete")])
    def test_string_for_a_list_names_the_field(self, field, value, tmp_path, capsys):
        # a string is iterable, so unchecked it read as its first letter
        cfg = _file(tmp_path / "plan.json", json.dumps({field: value}))
        assert main(["bench", "--config", str(cfg)]) == 2
        assert f"bench config field {field!r}" in capsys.readouterr().err


def _file(path, text):
    path.write_text(text)
    return path


def _bench_with(cfg):
    return lambda tmp: ["bench", "--config", _file(tmp / "plan.json", json.dumps(cfg))]


BAD_INPUTS = {
    "gen-count-0": lambda tmp: ["gen", "--profile", "beginner", "--count", "0"],
    "check-samples-0": lambda tmp: ["check", TABLE1, TABLE1, "--samples", "0"],
    "bench-config-not-an-object": lambda tmp: [
        "bench", "--config", _file(tmp / "plan.json", "[1]")],
    "bench-unknown-algorithm": lambda tmp: [
        "bench", "--config", _file(tmp / "plan.json", json.dumps({"algorithms": ["fastest"]}))],
    "bench-short-worst-case": lambda tmp: [
        "bench", "--config", _file(tmp / "plan.json", json.dumps({"sizes": [], "worst_case": [[1, 2]]}))],
    "bench-unknown-domain-attribute": lambda tmp: [
        "bench", "--config", _file(tmp / "plan.json", json.dumps({"sizes": [], "domain": "bogus=[0,1]"}))],
    "bench-sizes-not-a-list": _bench_with({"sizes": 5}),
    "bench-worst-case-not-pairs": _bench_with({"sizes": [], "worst_case": [5]}),
    "bench-profiles-a-string": _bench_with({"profiles": "beginner"}),
    "bench-algorithms-a-string": _bench_with({"algorithms": "complete"}),
    "bench-seeds-a-list": _bench_with({"sizes": [], "seeds": [1]}),
    "bench-output-a-number": _bench_with({"sizes": [], "output": 5}),
    "bench-domain-a-number": _bench_with({"sizes": [], "domain": 5}),
    "duplicate-header-attribute": lambda tmp: [
        "audit", _file(tmp / "dup.rules", "@domain s=[0,9], s=[0,9]\n")],
    "inverted-domain-flag": lambda tmp: ["audit", TABLE1, "--domain", "source=[3,1]"],
    "overlapping-sub-records": lambda tmp: ["audit", _file(
        tmp / "overlap.rules",
        "@domain a=[0,9], b=[0,9]\n1.1, [0,5], [0,5], accept\n1.2, [3,8], [3,8], accept\n")],
    "crowded-gen": lambda tmp: [
        "gen", "--profile", "beginner", "--count", "50",
        "--domain", "protocol=[0,0],source=[0,1],sport=[0,0],destination=[0,1],dport=[0,0]"],
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2_without_traceback(case, tmp_path, capsys):
    assert main([str(a) for a in BAD_INPUTS[case](tmp_path)]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("token", ["10.0.0.256", "10.256.0.1", "10.0.0.[1,256]", "10.0.0.[30,1]"])
def test_bad_ipv4_token_exits_2_naming_its_line(token, tmp_path, capsys):
    rules = f"1, any, any, any, any, any, deny\n2, any, {token}, any, any, any, accept\n"
    assert main(["audit", str(_file(tmp_path / "bad.rules", rules))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2")
    assert "Traceback" not in err


@pytest.mark.parametrize("token", ["[1,30", "[1,30]]", "]"])
def test_unbalanced_bracket_exits_2_naming_its_line(token, tmp_path, capsys):
    rules = f"1, any, any, any, any, any, deny\n2, any, {token}, any, any, any, accept\n"
    assert main(["audit", str(_file(tmp_path / "bad.rules", rules))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2")
    assert "Traceback" not in err


# an unterminated range, and a bracket inside an attribute name
@pytest.mark.parametrize("bounds", ["a=[0,10", "a[1,2]=[0,10]"])
def test_bad_header_bounds_exit_2_naming_line_1(bounds, tmp_path, capsys):
    rules = f"@domain {bounds}\n1, any, accept\n"
    assert main(["audit", str(_file(tmp_path / "bad.rules", rules))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1")
    assert "Traceback" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() reads integers of any length here")
def test_domain_bound_longer_than_int_reads_exits_2(tmp_path, capsys):
    # the @domain header names its line; the --domain flag has none to name
    bounds = f"source=[0,{'9' * 5000}]"
    header = _file(tmp_path / "long.rules", f"@domain {bounds}\n1, any, accept\n")
    runs = ((["audit", header], "line 1: "), (["audit", TABLE1, "--domain", bounds], ""))
    for argv, where in runs:
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {where}domain bound of source has more digits than int() reads\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() reads integers of any length here")
def test_order_longer_than_int_reads_exits_2(tmp_path, capsys):
    path = _file(tmp_path / "long.rules", "1" + "0" * 5000 + ", any, any, any, any, any, accept\n")
    assert main(["audit", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 1: order value has more digits than int() reads\n"


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_removed_exhaustive_flag_exits_2(self, capsys):
        # exhaustive is what check does without --samples
        assert main(["check", str(TABLE1), str(TABLE1), "--exhaustive"]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "fwaudit" in capsys.readouterr().out
