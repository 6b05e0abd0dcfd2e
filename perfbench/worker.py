"""Run ops back to back in one process and one thread: a closed loop with one client.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names each input's argv, the seconds to run and whether to
trace.  Ops cycle through the inputs until the time is up.  An op is timed
from the call of ``fwaudit.cli.main`` to its return; the command writes
its output to the op's own file.  In a traced run every op on an input
runs twice, untraced and then traced, so that the overhead of tracing is
measured on the same inputs in the same process.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import resource
import sys
import time
import traceback

from fwaudit import cli
from tracing import SPAN_COLUMNS, Tracer


def run(plan: dict) -> dict:
    inputs, out_dir = plan["inputs"], plan["out_dir"]
    modes = (False, True) if plan["trace"] else (False,)
    tracer = main = None
    if plan["trace"]:
        tracer = Tracer()
        main = tracer.span("cli.main", cli.main)
    ops = []
    start = time.perf_counter()
    deadline = start + plan["seconds"]
    for k in itertools.cycle(range(len(inputs))):
        if ops and time.perf_counter() >= deadline:
            break
        argv = inputs[k]
        for traced in modes:
            op = len(ops)
            out = f"{out_dir}/op{op}.out"
            argv_op = [a.replace("{out}", out) for a in argv]
            record = {"op": op, "input": k, "traced": traced, "output": out,
                      "stdout": f"{out_dir}/op{op}.stdout", "exit": None, "error": None}
            with open(record["stdout"], "w", encoding="utf-8") as sink, \
                    contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if traced:
                    tracer.op = op
                    tracer.install()
                try:
                    t0 = time.perf_counter()
                    record["exit"] = (main if traced else cli.main)(argv_op)
                except Exception:
                    record["error"] = traceback.format_exc()
                finally:
                    record["op_s"] = time.perf_counter() - t0
                    if traced:
                        tracer.uninstall()
            if traced:
                record["layers"] = tracer.take_op(op)
            ops.append(record)
    loop_s = time.perf_counter() - start
    if tracer is not None:
        with open(plan["spans"], "w", encoding="utf-8") as f:
            json.dump({"columns": SPAN_COLUMNS, "spans": tracer.spans}, f)
    return {
        "ops": ops,
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as f:
        plan = json.load(f)
    result = run(plan)
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(result, f)
