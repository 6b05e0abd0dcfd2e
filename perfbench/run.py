"""fwaudit benchmark: time to verdict for the four user commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src/`` directory.  The run prepares the workload's
seeded inputs (twice, to show they are reproducible), times the import of
``fwaudit`` in fresh interpreters, runs ops in a worker process for S
seconds, and then checks every op's output with ``checker``.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones; the lines before it show
them as a table.  The whole result, with provenance and output
fingerprints, is written to ``.bench_out/results/``.
``--workload all`` runs every workload and prints a table.  ``--smoke``
shrinks every input to a few dozen rules.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_STARTS = 6  # timed starts before the loop, and again after it
TAIL_OPS = 10  # ops that must lie beyond the reported tail percentile
# End-to-end metrics in the table and the result file but not in
# BENCHMARK.json: they move with the host's speed, see README.md.
REPORTED_ONLY = {"op_s.p50": "s", "ops_per_s": "1/s", "error_rate": "ratio"}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_OPS`` ops beyond it, and its rank.

    With too few ops for that, the slowest op and rank 100.
    """
    s = sorted(times)
    if len(s) <= TAIL_OPS:
        return s[-1], 100.0
    return s[-TAIL_OPS - 1], 100.0 * (len(s) - TAIL_OPS) / len(s)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _output(command: str, op: dict) -> tuple[str, str]:
    """The output an op is judged by, and its fingerprint digest.

    An audit report is digested without ``stats.elapsed_ms``, the only
    field that differs between two runs of one input.
    """
    if command == "check":
        text = _read(op["stdout"])
        return text, hashlib.sha256(text.encode()).hexdigest()
    text = _read(op["output"])
    if command == "audit":
        doc = json.loads(text)
        del doc["stats"]["elapsed_ms"]
        return text, hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()
    return text, hashlib.sha256(text.encode()).hexdigest()


def _check(command: str, argv: list[str], files: list[str], op: dict, text: str,
           seed: int) -> list[str]:
    if command == "audit":
        return checker.check_audit(_read(files[0]), text, op["exit"], seed)
    if command == "rewrite":
        return checker.check_rewrite(_read(files[0]), text, op["exit"], seed)
    return checker.check_check(_read(files[0]), _read(files[1]), text, op["exit"],
                               int(argv[-3]), int(argv[-1]), seed)


def _counts(command: str, text: str) -> dict:
    if command == "audit":
        doc = json.loads(text)
        kinds = [w["kind"] for w in doc["warnings"]]
        return {"rules_out": len(doc["rules"]),
                "boxes_out": sum(len(r["condition"]) for r in doc["rules"]),
                "shadowing": kinds.count("shadowing"), "redundancy": kinds.count("redundancy")}
    if command == "rewrite":
        out = checker.parse_rules(text)
        return {"rules_out": out.rules, "boxes_out": len(out.lo)}
    return {}


def judge(command: str, inputs: list[dict], ops: list[dict], seed: int):
    """Check every op's output; return failures by op and fingerprints by input.

    Ops on one input whose outputs digest alike are checked once.  An op
    fails if it raised, if its output is missing or unreadable, or if the
    check finds a problem with it.
    """
    failures: dict[int, list[str]] = {}
    groups = defaultdict(list)
    for op in ops:
        if op["error"] is not None:
            failures[op["op"]] = [op["error"].strip().splitlines()[-1]]
            continue
        try:
            text, sha = _output(command, op)
        except (OSError, ValueError, KeyError, TypeError) as e:
            failures[op["op"]] = [f"unreadable output: {e!r}"]
            continue
        groups[(op["input"], sha)].append((op, text))
    fingerprints: dict[int, dict] = {}
    for (k, sha), members in groups.items():
        op, text = members[0]
        inp = inputs[k]
        try:
            problems = _check(command, inp["argv"], inp["files"], op, text, seed)
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            problems = [f"output does not parse: {e!r}"]
        for member, _ in members:
            if problems:
                failures[member["op"]] = problems
        if k in fingerprints:
            fingerprints[k]["variants"] += 1
        elif not problems:
            fingerprints[k] = {"sha256": sha, **_counts(command, text), "variants": 1}
    return failures, fingerprints


def setup_seconds(env: dict) -> list[float]:
    """Wall times of ``SETUP_STARTS`` fresh interpreters importing fwaudit."""
    cmd = [sys.executable, "-c", "import fwaudit"]
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance() -> dict:
    sources = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    for f in sources:
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_digest": "sha256:" + h.hexdigest(),
    }


def _compare_fingerprints(name: str, fingerprints: dict) -> list[str]:
    """Inputs whose fingerprint differs from the last run of this seed here."""
    path = OUT / "fingerprints" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    current = {str(k): v for k, v in fingerprints.items()}
    changed = []
    if path.is_file():
        before = json.loads(path.read_text())
        changed = [k for k, v in current.items() if k in before and before[k] != v]
    path.write_text(json.dumps(current, indent=2))
    return changed


def _median_layers(ops: list[dict]) -> dict[str, float]:
    traced = [op["layers"] for op in ops if op["traced"]]
    return {name: statistics.median(t[name] for t in traced) for name in traced[0]}


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    """One benchmark run; returns the whole result document."""
    from workloads import WORKLOADS, digest, prepare

    workload = WORKLOADS[name]
    tag = f"{name}-seed{seed}{'-smoke' if smoke else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = prepare(workload, seed, work / "in", smoke)
        again = prepare(workload, seed, work / "again", smoke)
        digests = [{f.name: digest(f) for f in i.files} for i in inputs]
        reproducible = digests == [{f.name: digest(f) for f in i.files} for i in again]
        if not trace:  # one untimed start first writes the bytecode
            subprocess.run([sys.executable, "-c", "import fwaudit"], env=env, cwd=ROOT,
                           check=True, timeout=60)
            starts = setup_seconds(env)

        (work / "out").mkdir()
        plan = {
            "inputs": [list(i.argv) for i in inputs],
            "out_dir": str(work / "out"),
            "seconds": seconds,
            "trace": trace,
            "spans": str(OUT / "results" / f"{tag}-spans.json"),
        }
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        (work / "plan.json").write_text(json.dumps(plan))
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
             str(work / "result.json")],
            env=env, cwd=ROOT, check=True, timeout=seconds + 120,
        )
        result = json.loads((work / "result.json").read_text())
        setup_s = None if trace else statistics.median(starts + setup_seconds(env))
        ops = result["ops"]
        failures, fingerprints = judge(
            workload.command,
            [{"argv": list(i.argv), "files": [str(f) for f in i.files]} for i in inputs],
            ops, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = [op["op_s"] for op in ops if not op["traced"]]
    tail_s, tail_rank = tail(times)
    end_to_end = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": len(times) / result["loop_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": len(failures) / len(ops),
        "setup_s": setup_s,
    }
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": not failures and reproducible,
        "attempted": len(ops),
        "failed": len(failures),
        "provenance": {
            **provenance(),
            "inputs": [{"label": i.label, "files": d} for i, d in zip(inputs, digests)],
            "inputs_reproducible": reproducible,
            "untraced_ops": len(times),
            "op_s.tail_percentile": round(tail_rank, 1),
        },
        "op_s": [[op["input"], op["op_s"]] for op in ops if not op["traced"]],
        "fingerprints": fingerprints,
        "fingerprint_changed": _compare_fingerprints(tag, fingerprints),
        "failures": failures,
    }
    if trace:
        layers = _median_layers(ops)
        layers["trace.overhead_ratio"] = (
            statistics.median(op["op_s"] for op in ops if op["traced"]) / end_to_end["op_s.p50"])
        layers["synth.generate.s"] = statistics.median(i.generate_s for i in inputs)
        doc["per_layer"] = layers
    else:
        doc["end_to_end"] = end_to_end
    (OUT / "results" / f"{tag}-trace{int(trace)}.json").write_text(json.dumps(doc, indent=2))
    return doc


def contract_line(doc: dict, spec: dict) -> dict:
    """The driver's summary: correctness, op counts and the metrics BENCHMARK.json names."""
    values = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    names = spec["per_layer"] if doc["trace"] else spec["end_to_end"]
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "fwaudit" / "__init__.py").is_file():
        print(f"perfbench: no fwaudit sources under {SRC}; run inside a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORTED_ONLY)
    names_e2e = [m["name"] for m in spec["end_to_end"]] + list(REPORTED_ONLY)
    names_trace = [m["name"] for m in spec["per_layer"]]
    lines = {}
    for name in names:
        doc = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        lines[name] = contract_line(doc, spec)
        values = doc["per_layer" if args.trace else "end_to_end"]
        print(f"{name}: {doc['attempted']} ops, {doc['failed']} failed, "
              f"inputs reproducible: {doc['provenance']['inputs_reproducible']}")
        for metric in (names_trace if args.trace else names_e2e):
            print(f"  {metric:40s} {values[metric]:14.6g} {units[metric]}")
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
