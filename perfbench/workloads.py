"""The benchmark's workloads: seeded input pools and the command each op runs.

Every workload has a fixed pool of generated rulesets.  The benchmark seed
mirrors each of them on a seeded subset of attributes, which changes the
input files but not the work an op does on them, so the seed does not move
the cost of a run.  ``prepare`` writes the pool as rule files and names
the ``fwaudit`` command line that one op runs on one input.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

from fwaudit.audit import complete_detection
from fwaudit.intervals import Box, DomainSpec, Interval
from fwaudit.rulefile import serialize_ruleset
from fwaudit.rules import Ruleset
from fwaudit.synth import generate, profile, worst_case_family

SAMPLES = 100_000
SMOKE_SAMPLES = 2_000


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # audit | rewrite | check
    profile: str | None  # synth profile, or None for the worst-case family
    pool: int = 0  # generated inputs per run
    rules: int = 0  # rules per generated input, at full size
    nested: tuple[tuple[int, int], ...] = ()  # worst-case (n, p) shapes


# Why each workload exists is written down in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit-sparse", "audit", "beginner", pool=3, rules=300),
        Workload("rewrite-dense", "rewrite", "expert", pool=30, rules=250),
        Workload("check-sampled", "check", "intermediate", pool=3, rules=100),
        Workload("growth-nested", "audit", None, nested=((7, 5), (9, 4), (13, 3))),
    )
}

_SMOKE_NESTED = ((5, 3), (4, 4), (6, 2))
_SMOKE_RULES = 40


@dataclass(frozen=True)
class Input:
    """One prepared input: its files and the argv of an op on it.

    ``{out}`` in ``argv`` stands for the op's own output file.
    """

    label: str
    files: tuple[Path, ...]
    argv: tuple[str, ...]
    generate_s: float


def _mirrored(ruleset: Ruleset, rng: random.Random) -> Ruleset:
    """The ruleset reflected on a seeded subset of attributes.

    Reflection maps x to lo + hi - x on an attribute's range.  It keeps
    every overlap, emptied rule and warning, and the commands do the same
    work on every mirror image.  So the pool varies with the seed while
    the cost of each op does not.
    """
    attrs = ruleset.domain.attributes
    flip = [rng.random() < 0.5 for _ in attrs]

    def reflect(box: Box) -> Box:
        return Box(tuple(
            Interval(a.lo + a.hi - iv.hi, a.lo + a.hi - iv.lo) if f else iv
            for iv, a, f in zip(box.intervals, attrs, flip)
        ))

    return Ruleset(ruleset.domain, tuple(
        replace(r, condition=tuple(reflect(b) for b in r.condition)) for r in ruleset.rules
    ))


def prepare(workload: Workload, seed: int, directory: Path, smoke: bool) -> list[Input]:
    """Write the seeded input pool of a workload into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload.name}/{seed}")
    n = _SMOKE_RULES if smoke else workload.rules
    if workload.nested:
        shapes = _SMOKE_NESTED if smoke else workload.nested
    else:
        shapes = (None,) * workload.pool
    inputs = []
    for k, shape in enumerate(shapes):
        path = directory / f"in{k}.rules"
        t0 = time.perf_counter()
        if shape is None:
            ruleset = generate(profile(workload.profile, seed=k), n, DomainSpec.five_tuple())
            label = f"{workload.profile} n={n} seed={k}"
        else:
            ruleset = worst_case_family(*shape)
            label = f"worst_case_family n={shape[0]} p={shape[1]}"
        generate_s = time.perf_counter() - t0
        ruleset = _mirrored(ruleset, rng)
        path.write_text(serialize_ruleset(ruleset), encoding="utf-8")
        files = (path,)
        if workload.command == "audit":
            argv = ["audit", str(path), "--format", "json", "--output", "{out}"]
            if workload.nested:  # the only workload that runs the detection audit
                argv[2:2] = ["--algorithm", "detection"]
        elif workload.command == "rewrite":
            argv = ["rewrite", str(path), "--mode", "positive", "--output", "{out}"]
        else:
            audited = path.with_name(path.name + ".audited")
            audited.write_text(serialize_ruleset(complete_detection(ruleset).transformed),
                               encoding="utf-8")
            files += (audited,)
            samples = SMOKE_SAMPLES if smoke else SAMPLES
            argv = ["check", str(path), str(audited), "--samples", str(samples),
                    "--seed", str(rng.randrange(2**31))]
        inputs.append(Input(label, files, tuple(argv), generate_s))
    return inputs


def digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
