"""Only sampled checks load numpy: ``import fwaudit`` and the audit,
rewrite, gen, bench and exact check commands run in an interpreter where
numpy cannot be imported, and print what they print with it."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import fwaudit
from fwaudit.cli import main

FIXTURES = Path(__file__).parent.parent / "fixtures"

# runs each argv through the CLI in a child where numpy cannot be imported
_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fwaudit.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""

# the timings, the only output that differs between two runs
_ELAPSED = re.compile(r'("elapsed_ms": |elapsed: )[-+0-9.eE]+')
_CSV_ELAPSED = re.compile(r"^((?:[^,\n]*,){5})[^,\n]*", re.M)  # bench column 6


def _steady(argv: list[str], text: str) -> str:
    return _CSV_ELAPSED.sub(r"\g<1>0", text) if argv[0] == "bench" else _ELAPSED.sub(r"\g<1>0", text)


def _python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(fwaudit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_import_leaves_numpy_out():
    child = _python("-c", "import sys, fwaudit; print('numpy' in sys.modules)")
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"


def test_commands_match_a_run_with_numpy(tmp_path):
    generated = tmp_path / "expert.rules"
    assert main(["gen", "--profile", "expert", "--count", "120", "--seed", "4",
                 "--output", str(generated)]) == 0
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "algorithms": ["detection", "complete"], "profiles": ["beginner", "expert"],
        "sizes": [30], "seeds": 2, "worst_case": [[5, 3]],
    }))
    runs = [["gen", "--profile", "intermediate", "--count", "80", "--seed", "2"],
            ["bench", "--config", str(config)]]
    for path in (str(FIXTURES / "table1.rules"), str(generated)):
        for algorithm in ("detection", "complete"):
            for fmt in ("text", "json"):
                runs.append(["audit", path, "--algorithm", algorithm, "--format", fmt])
        for mode in ("positive", "negative"):
            runs.append(["rewrite", path, "--mode", mode])
        # a positive rewrite drops the deny rules, so it differs three-valued
        positive = str(tmp_path / f"{Path(path).stem}.positive.rules")
        assert main(["rewrite", path, "--mode", "positive", "--output", positive]) == 0
        runs += [["check", path, path], ["check", path, positive]]

    child = _python("-c", _CHILD, json.dumps(runs))
    assert child.returncode == 0, child.stderr
    for argv, (code, text) in zip(runs, json.loads(child.stdout), strict=True):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            expected = main(argv)
        assert code == expected, argv
        assert _steady(argv, text) == _steady(argv, out.getvalue()), argv
