"""Ground truth for ruleset behaviour.

Everything here treats a ruleset as a black-box packet classifier under
first-match semantics, independently of the interval algebra the
transforms are built on.  Exact checks split the packet space on demand
into regions on which every ruleset's matching rules are fixed, using
only containment and intersection tests, so they cover any domain.
Sampled checks draw seeded random packets and are advisory only; they
alone use numpy, imported inside the functions that need it, store
samples at their attribute's width, the narrowest integer type holding
it, and sort only the samples a bucket screen of the rules' ranges keeps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import DomainError
from .intervals import DomainSpec
from .rules import Decision, Rule, Ruleset

if TYPE_CHECKING:
    import numpy as np

Packet = tuple[int, ...]


class Outcome(str, Enum):
    ACCEPT = "accept"
    DENY = "deny"
    NO_MATCH = "no_match"


_OUTCOME_CODE = {Decision.ACCEPT: 1, Decision.DENY: 0}
_CODE_OUTCOME = {1: Outcome.ACCEPT, 0: Outcome.DENY, -1: Outcome.NO_MATCH}
# sample column types, narrowest first: the first that holds an attribute stores it
_SAMPLE_TYPES = ("uint8", "int8", "uint16", "int16", "uint32", "int32", "int64")
_CHUNK = 1 << 14  # samples drawn, and screened, per numpy call
_BUCKET_BITS = 20  # a screen has at most 2**20 + 1 buckets


@dataclass(frozen=True, slots=True)
class EquivalenceResult:
    """Verdict of an equivalence check, with the first disagreeing packet."""

    equivalent: bool
    counterexample: Packet | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def evaluate(ruleset: Ruleset, packet: Packet) -> Outcome:
    """Decision of the first rule matching the packet, or NO_MATCH."""
    ruleset.domain.check_packet(packet)
    for rule in ruleset.rules:
        if any(all(lo <= v <= hi for (lo, hi), v in zip(box, packet)) for box in rule.condition):
            return Outcome(rule.decision.value)
    return Outcome.NO_MATCH


def _first_rules(meeting: list, region: tuple, depth: int) -> tuple[list[int], tuple | None]:
    """The first ``depth`` distinct rules in ``meeting`` with a box holding
    all of ``region``, or the cut ``(attribute, value)`` at a box before them
    that holds only part of it."""
    first: list[int] = []
    for i, box in meeting:
        if i in first:
            continue
        for k, ((lo, hi), (rlo, rhi)) in enumerate(zip(box, region)):
            if lo > rlo or hi < rhi:
                return first, (k, lo if lo > rlo else hi + 1)
        first.append(i)
        if len(first) == depth:
            break
    return first, None


def _walk(domain: DomainSpec, rule_lists: tuple[tuple[Rule, ...], ...], depth: int):
    """Yield ``(corner, found)`` for regions that partition the domain, in
    ascending order of their lower corner: ``found`` holds, per rule list,
    the indexes of the first ``depth`` rules matching every packet there.

    A region carries, per list, the ``(rule index, box)`` pairs that meet
    it, in rule order.  The lower corner is the smallest packet of its
    region, so the first region yielded with a property has the smallest
    packet with it as its corner.
    """
    whole = tuple((a.lo, a.hi) for a in domain.attributes)
    boxes = [[(i, b) for i, r in enumerate(rs) for b in r.condition] for rs in rule_lists]
    heap = [(tuple(lo for lo, _ in whole), whole, boxes)]
    while heap:
        corner, region, boxes = heapq.heappop(heap)
        found = []
        for meeting in boxes:
            first, cut = _first_rules(meeting, region, depth)
            if cut:
                break
            found.append(first)
        else:
            yield corner, found
            continue
        k, v = cut
        (lo, hi), before, after = region[k], region[:k], region[k + 1 :]
        heapq.heappush(heap, (corner, before + ((lo, v - 1),) + after,
                              [[(i, b) for i, b in m if b[k][0] < v] for m in boxes]))
        heapq.heappush(heap, (corner[:k] + (v,) + corner[k + 1 :], before + ((v, hi),) + after,
                              [[(i, b) for i, b in m if b[k][1] >= v] for m in boxes]))


def equivalent(r1: Ruleset, r2: Ruleset, *, default: Decision | None = None) -> EquivalenceResult:
    """Compare two rulesets on every packet of their domain.

    By default outcomes are compared three-valued (accept / deny /
    no-match), so a positive verdict holds under any default policy.
    Passing ``default`` folds no-match into that decision first, which is
    how a rewritten ruleset is checked against its declared policy.  The
    counterexample is the lexicographically smallest differing packet.
    """
    if r1.domain != r2.domain:
        raise DomainError("rulesets declare different domains")
    for corner, (f1, f2) in _walk(r1.domain, (r1.rules, r2.rules), 1):
        d1 = r1.rules[f1[0]].decision if f1 else default
        d2 = r2.rules[f2[0]].decision if f2 else default
        if d1 is not d2:
            return EquivalenceResult(False, corner)
    return EquivalenceResult(True)


def _first_matches(ruleset: Ruleset) -> tuple[set[int], set[int]]:
    """Indexes of the rules that are some packet's first match, and of those
    whose removal changes some packet's outcome: the next rule matching
    that packet has the other decision, or none does."""
    rules = ruleset.rules
    reached, needed = set(), set()
    for _, (found,) in _walk(ruleset.domain, (rules,), 2):
        if found:
            reached.add(found[0])
            if len(found) == 1 or rules[found[1]].decision is not rules[found[0]].decision:
                needed.add(found[0])
    return reached, needed


def find_shadowed(ruleset: Ruleset) -> set[int]:
    """Positions of rules that are never any packet's first match."""
    reached, _ = _first_matches(ruleset)
    return {r.position for idx, r in enumerate(ruleset.rules) if idx not in reached}


def find_redundant(ruleset: Ruleset) -> set[int]:
    """Positions of non-shadowed rules whose removal changes no packet's outcome."""
    reached, needed = _first_matches(ruleset)
    return {ruleset.rules[idx].position for idx in reached - needed}


def _sample_outcomes(
    domain: DomainSpec, rule_lists: tuple[tuple[Rule, ...], ...], columns: list[np.ndarray]
) -> tuple[list[np.ndarray], set[int]]:
    """First-match outcome code of every sample under each rule list, -1
    where no rule matches, and the attributes screened to find them.

    Each box looks only at the samples inside its range on the attribute
    where it covers the smallest share of the domain, the one with the
    fewest expected hits.  One screen per such attribute serves every
    list: it marks the buckets, ``2**s`` values wide and about one per
    sample, that the boxes' ranges touch, gathers the samples in them a
    chunk at a time and sorts those by value, so one vectorized binary
    search bounds every box's samples.  A bucket is ``(v >> s) - (lo >> s)``,
    which no int64 value overflows.  Boxes holding no sample are skipped;
    the others, in rule order, claim the samples no earlier rule did and
    that they hold on every attribute.
    """
    import numpy as np
    widths = [a.hi - a.lo + 1 for a in domain.attributes]
    size = columns[0].size
    picks = []  # (list, outcome code, box, attribute) per box, in rule order
    for n, rules in enumerate(rule_lists):
        for rule in rules:
            for box in rule.condition:
                shares = [(hi - lo + 1) / w for (lo, hi), w in zip(box, widths)]
                picks.append((n, _OUTCOME_CODE[rule.decision], box, shares.index(min(shares))))
    found = [None] * len(picks)  # each box's candidates: positions of its samples on k
    bits = min(size.bit_length() - 1, _BUCKET_BITS)
    screened = {k for *_, k in picks}
    for k in screened:
        mine = [i for i, pick in enumerate(picks) if pick[3] == k]
        ranges = [picks[i][2][k] for i in mine]
        a, col = domain.attributes[k], columns[k]
        s = min(max((widths[k] - 1).bit_length() - bits, 0), 63)
        first = a.lo >> s
        marked = np.zeros((a.hi >> s) - first + 1, dtype=bool)
        end = 0
        for lo, hi in sorted(ranges):  # marks each bucket once
            start, end = max((lo >> s) - first, end), max((hi >> s) - first + 1, end)
            marked[start:end] = True
        positions = np.concatenate([
            np.flatnonzero(marked[(col[c:c + _CHUNK].astype(np.int64) >> s) - first]) + c
            for c in range(0, size, _CHUNK)])
        values = col[positions]
        # a radix sort up to 16 bits, keeping equal values in position order
        order = values.argsort(kind="stable" if values.itemsize <= 2 else "quicksort")
        values, positions = values[order], positions[order]
        los, his = np.array(ranges, dtype=values.dtype).T
        bounds = zip(values.searchsorted(los).tolist(), values.searchsorted(his, "right").tolist())
        for i, (start, stop) in zip(mine, bounds):
            found[i] = positions[start:stop]
    outs = [np.full(size, -1, dtype=np.int8) for _ in rule_lists]
    for (n, code, box, k), cand in zip(picks, found):
        if not cand.size:
            continue
        cand = cand[outs[n][cand] == -1]
        for j, ((lo, hi), column) in enumerate(zip(box, columns)):
            if j != k and cand.size:
                values = column[cand]
                cand = cand[(values >= lo) & (values <= hi)]
        outs[n][cand] = code
    return outs, screened


def _sample_columns(domain: DomainSpec, samples: int, seed: int) -> list[np.ndarray]:
    """Seeded uniform random packets, one column per attribute, drawn as int64
    in chunks, which continue one random stream, straight into the narrowest
    integer type that holds the attribute."""
    import numpy as np
    for a in domain.attributes:
        if not -(2**63) <= a.lo <= a.hi < 2**63:
            raise DomainError(
                f"attribute {a.name} [{a.lo},{a.hi}] does not fit in 64-bit integers; "
                "sampling draws int64 packets"
            )
    rng = np.random.default_rng(seed)
    columns = []
    for a in domain.attributes:
        column = np.empty(samples, dtype=next(
            t for t in _SAMPLE_TYPES if np.iinfo(t).min <= a.lo and a.hi <= np.iinfo(t).max))
        for chunk in np.split(column, range(_CHUNK, samples, _CHUNK)):
            chunk[:] = rng.integers(a.lo, a.hi, chunk.size, endpoint=True, dtype=np.int64)
        columns.append(column)
    return columns


def sample_equivalent(r1: Ruleset, r2: Ruleset, samples: int, seed: int) -> EquivalenceResult:
    """Compare outcomes on seeded uniform random packets.

    Advisory only: agreement on every sample is evidence, not proof, of
    equivalence.  Identical (rulesets, samples, seed) always draw the
    same packets.
    """
    if r1.domain != r2.domain:
        raise DomainError("rulesets declare different domains")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    columns = _sample_columns(r1.domain, samples, seed)
    (o1, o2), _ = _sample_outcomes(r1.domain, (r1.rules, r2.rules), columns)
    diff = (o1 != o2).nonzero()[0]
    if diff.size == 0:
        return EquivalenceResult(True)
    first = int(diff[0])
    return EquivalenceResult(False, tuple(int(col[first]) for col in columns))
