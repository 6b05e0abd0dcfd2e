"""Output checks that share no code with fwaudit.

Rule files and JSON reports are read by a parser of this module's own and
evaluated with plain numpy comparisons, so a fault in the program's parser
or box algebra cannot also hide itself from the check.  Each check returns
a list of problems; an empty list means the output is correct.

Uniform five-tuple packets almost never hit a generated rule, so the test
packets are drawn from inside the boxes instead: corners, one past each
face, and interior points.  Domains of at most ``EXHAUSTIVE_LIMIT`` packets
are checked at every packet.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

ACCEPT, DENY, NO_MATCH = 1, 0, -1
EXHAUSTIVE_LIMIT = 5_000_000

_CODES = {"accept": ACCEPT, "deny": DENY}
_FIVE_TUPLE = (
    ("protocol", 0, 255),
    ("source", 0, 2**32 - 1),
    ("sport", 0, 65535),
    ("destination", 0, 2**32 - 1),
    ("dport", 0, 65535),
)
_SPLIT = re.compile(r",(?![^\[]*\])")  # commas outside [a,b]
_RANGE = re.compile(r"^\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]$")
_ORDER = re.compile(r"^(\d+)(?:\.\d+)?$")


@dataclass(frozen=True)
class Boxes:
    """A ruleset flattened to one row per box, in first-match order.

    ``lo`` and ``hi`` are (B, p) inclusive bounds, ``code`` the decision
    of each box's rule and ``order`` its rule's order value.
    """

    dom_lo: np.ndarray
    dom_hi: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    code: np.ndarray
    order: np.ndarray

    @property
    def rules(self) -> int:
        return len(np.unique(self.order))


def _boxes(domain, rows) -> Boxes:
    p = len(domain)
    lo = np.array([r[0] for r in rows], dtype=np.int64).reshape(-1, p)
    hi = np.array([r[1] for r in rows], dtype=np.int64).reshape(-1, p)
    dom_lo = np.array([d[1] for d in domain], dtype=np.int64)
    dom_hi = np.array([d[2] for d in domain], dtype=np.int64)
    if ((lo > hi) | (lo < dom_lo) | (hi > dom_hi)).any():
        raise ValueError("a box is inverted or leaves the domain")
    return Boxes(
        dom_lo,
        dom_hi,
        lo,
        hi,
        np.array([r[2] for r in rows], dtype=np.int8),
        np.array([r[3] for r in rows], dtype=np.int64),
    )


def _interval(token: str, lo: int, hi: int) -> tuple[int, int]:
    if token == "any":
        return lo, hi
    m = _RANGE.match(token)
    if m:
        return int(m.group(1)), int(m.group(2))
    v = int(token)
    return v, v


def parse_rules(text: str) -> Boxes:
    """Read a rule file in the form ``serialize_ruleset`` writes."""
    domain = _FIVE_TUPLE
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@domain"):
            domain = []
            for part in _SPLIT.split(line[len("@domain"):]):
                name, _, rng = part.strip().partition("=")
                lo, hi = _RANGE.match(rng).groups()
                domain.append((name, int(lo), int(hi)))
            continue
        fields = [f.strip() for f in _SPLIT.split(line)]
        if len(fields) != len(domain) + 2:
            raise ValueError(f"bad record {line!r}")
        ivs = [_interval(t, d[1], d[2]) for t, d in zip(fields[1:-1], domain)]
        order = int(_ORDER.match(fields[0]).group(1))
        rows.append(([a for a, _ in ivs], [b for _, b in ivs], _CODES[fields[-1]], order))
    return _boxes(domain, rows)


def parse_report(doc: dict) -> Boxes:
    """Read the surviving rules of a JSON audit report."""
    domain = [(a["name"], a["lo"], a["hi"]) for a in doc["domain"]]
    rows = [
        ([iv[0] for iv in box], [iv[1] for iv in box], _CODES[r["decision"]], r["order"])
        for r in doc["rules"]
        for box in r["condition"]
    ]
    return _boxes(domain, rows)


def _domain_size(b: Boxes) -> int:
    return int(np.prod([int(x) for x in b.dom_hi - b.dom_lo + 1], dtype=object))


def probe_packets(sets: list[Boxes], rng: np.random.Generator) -> np.ndarray:
    """Test packets from inside and around every box of every set."""
    pts = []
    for b in sets:
        lo, hi = b.lo, b.hi
        pts += [lo, hi]
        for _ in range(6):
            pts.append(np.where(rng.integers(0, 2, lo.shape, dtype=bool), hi, lo))
        for _ in range(2):
            pts.append(rng.integers(lo, hi, endpoint=True))
        mid = lo + (hi - lo) // 2
        for k in range(lo.shape[1]):
            for edge in (lo[:, k] - 1, hi[:, k] + 1):
                q = mid.copy()
                q[:, k] = edge
                pts.append(q)
    packets = np.concatenate(pts)
    inside = np.all((packets >= sets[0].dom_lo) & (packets <= sets[0].dom_hi), axis=1)
    return np.unique(packets[inside], axis=0)


def evaluate(b: Boxes, packets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-match outcome of every packet, and how many boxes hold it."""
    key = int(np.argmax(b.dom_hi - b.dom_lo))
    order = np.argsort(packets[:, key], kind="stable")
    col = packets[order, key]
    first = np.full(len(packets), -1, dtype=np.int64)
    count = np.zeros(len(packets), dtype=np.int32)
    for i in range(len(b.lo)):
        i0 = np.searchsorted(col, b.lo[i, key], "left")
        i1 = np.searchsorted(col, b.hi[i, key], "right")
        if i0 == i1:
            continue
        cand = order[i0:i1]
        sub = packets[cand]
        hit = cand[np.all((sub >= b.lo[i]) & (sub <= b.hi[i]), axis=1)]
        count[hit] += 1
        fresh = hit[first[hit] == -1]
        first[fresh] = i
    outcome = np.where(first >= 0, b.code[np.maximum(first, 0)], NO_MATCH).astype(np.int8)
    return outcome, count


def evaluate_grid(b: Boxes) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate`` at every packet of the domain, as dense grids."""
    shape = tuple(int(x) for x in b.dom_hi - b.dom_lo + 1)
    outcome = np.full(shape, NO_MATCH, dtype=np.int8)
    count = np.zeros(shape, dtype=np.int32)
    regions = [
        tuple(slice(int(l), int(h) + 1) for l, h in zip(lo, hi))
        for lo, hi in zip(b.lo - b.dom_lo, b.hi - b.dom_lo)
    ]
    for region, code in zip(reversed(regions), reversed(b.code)):
        outcome[region] = code  # painted last to first, so the first match wins
    for region in regions:
        count[region] += 1
    return outcome, count


def overlapping_pair(b: Boxes, chunk: int = 256) -> tuple[int, int] | None:
    """Indices of two boxes sharing a packet, or None if all are disjoint."""
    n = len(b.lo)
    for s in range(0, n, chunk):
        lo, hi = b.lo[s : s + chunk, None, :], b.hi[s : s + chunk, None, :]
        meet = np.all((lo <= b.hi[None]) & (b.lo[None] <= hi), axis=2)
        rows = np.arange(meet.shape[0])
        meet[rows, rows + s] = False
        if meet.any():
            i, j = np.argwhere(meet)[0]
            return int(i) + s, int(j)
    return None


def compare(original: Boxes, output: Boxes, *, default: int | None, seed: int) -> list[str]:
    """Problems found comparing first-match outcomes of two rulesets.

    With ``default`` set, no-match folds into that decision on both sides.
    Also reports a packet that falls in two boxes of ``output``.
    """
    if (original.dom_lo != output.dom_lo).any() or (original.dom_hi != output.dom_hi).any():
        return ["output declares another domain"]
    if _domain_size(original) <= EXHAUSTIVE_LIMIT:
        (want, _), (got, count) = evaluate_grid(original), evaluate_grid(output)
        how = "every packet"
    else:
        packets = probe_packets([original, output], np.random.default_rng(seed))
        (want, _), (got, count) = evaluate(original, packets), evaluate(output, packets)
        how = f"{len(packets)} probe packets"
    if default is not None:
        want = np.where(want == NO_MATCH, default, want)
        got = np.where(got == NO_MATCH, default, got)
    problems = []
    differ = int(np.count_nonzero(want != got))
    if differ:
        problems.append(f"outcome differs on {differ} of {how}")
    if (count > 1).any():
        problems.append(f"{int(np.count_nonzero(count > 1))} of {how} fall in two output boxes")
    pair = overlapping_pair(output)
    if pair is not None:
        problems.append(f"output boxes {pair[0]} and {pair[1]} overlap")
    return problems


def check_audit(input_text: str, report_text: str, exit_code: int, seed: int) -> list[str]:
    """An audit report must match its input three-valued, and exit 1 iff it warns."""
    doc = json.loads(report_text)
    output = parse_report(doc)
    problems = compare(parse_rules(input_text), output, default=None, seed=seed)
    warned = {w["rule"] for w in doc["warnings"]}
    if exit_code != (1 if warned else 0):
        problems.append(f"exit code {exit_code} with {len(doc['warnings'])} warnings")
    if warned & set(output.order.tolist()):
        problems.append("a warned rule survives in the output")
    stats = doc["stats"]
    if (stats["output_rules"], stats["output_boxes"]) != (output.rules, len(output.lo)):
        problems.append("stats disagree with the rules listed")
    return problems


def check_rewrite(input_text: str, output_text: str, exit_code: int, seed: int) -> list[str]:
    """A positive rewrite must match its input under default-deny."""
    output = parse_rules(output_text)
    problems = compare(parse_rules(input_text), output, default=DENY, seed=seed)
    if (output.code != ACCEPT).any():
        problems.append("positive rewrite kept a deny rule")
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    return problems


def check_check(original_text: str, transformed_text: str, stdout: str, exit_code: int,
                samples: int, sample_seed: int, seed: int) -> list[str]:
    """``check`` must say equivalent, and the pair must really be equivalent."""
    problems = compare(parse_rules(original_text), parse_rules(transformed_text),
                       default=None, seed=seed)
    problems = [f"inputs: {p}" for p in problems]
    if exit_code != 0 or stdout != f"equivalent ({samples} samples (seed {sample_seed}))\n":
        problems.append(f"exit code {exit_code}, output {stdout.strip()!r}")
    return problems
