import io
import json

import pytest

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


class TestCheck:
    def test_transform_is_equivalent(self, tmp_path, capsys):
        out = tmp_path / "audited.rules"
        main(["rewrite", str(TABLE1), "--mode", "positive", "--output", str(out)])
        # positive rewrite drops deny traffic: not equivalent three-valued
        assert main(["check", str(TABLE1), str(out)]) == 1

    def test_file_vs_itself(self, capsys):
        assert main(["check", str(TABLE1), str(TABLE1), "--exhaustive"]) == 0
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

    def test_domain_mismatch_exits_2(self, tmp_path, capsys):
        other = tmp_path / "other.rules"
        other.write_text("1, any, any, any, any, any, accept\n")
        assert main(["check", str(TABLE1), str(other)]) == 2

    def test_exhaustive_over_budget_exits_2(self, tmp_path, capsys):
        f = tmp_path / "wide.rules"
        f.write_text("1, any, any, any, any, any, accept\n")
        assert main(["check", str(f), str(f)]) == 2
        assert "sample" in capsys.readouterr().err


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


def _file(path, text):
    path.write_text(text)
    return path


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
    "duplicate-header-attribute": lambda tmp: [
        "audit", _file(tmp / "dup.rules", "@domain s=[0,9], s=[0,9]\n")],
    "inverted-domain-flag": lambda tmp: ["audit", TABLE1, "--domain", "source=[3,1]"],
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


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "fwaudit" in capsys.readouterr().out
