"""Brute-force ground truth for ruleset behaviour.

Everything here treats a ruleset as a black-box packet classifier under
first-match semantics and checks it point by point, independently of the
interval algebra the transforms are built on.  Exhaustive checks
materialize the whole packet space as a dense grid of at most
``DEFAULT_BUDGET`` packets; sampled checks draw seeded random packets
and are advisory only.  Both run on numpy, imported inside the
functions that use it, so the rest of the package never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import DomainError, DomainTooLargeError
from .intervals import DomainSpec
from .rules import Decision, Rule, Ruleset

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 10_000_000

Packet = tuple[int, ...]


class Outcome(str, Enum):
    ACCEPT = "accept"
    DENY = "deny"
    NO_MATCH = "no_match"


_OUTCOME_CODE = {Decision.ACCEPT: 1, Decision.DENY: 0}
_CODE_OUTCOME = {1: Outcome.ACCEPT, 0: Outcome.DENY, -1: Outcome.NO_MATCH}


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
        if any(box.contains(packet) for box in rule.condition):
            return Outcome(rule.decision.value)
    return Outcome.NO_MATCH


def _check_budget(domain: DomainSpec) -> None:
    size = domain.size()
    if size > DEFAULT_BUDGET:
        raise DomainTooLargeError(
            f"domain holds {size} packets, over the exhaustive budget of {DEFAULT_BUDGET}; "
            "use sample_equivalent for domains this large"
        )


def _grid_shape(domain: DomainSpec) -> tuple[int, ...]:
    return tuple(a.hi - a.lo + 1 for a in domain.attributes)


def _first_match_grid(domain: DomainSpec, rules: tuple[Rule, ...]) -> np.ndarray:
    """Grid over the whole packet space holding the first matching rule's
    index into ``rules``, or -1 where nothing matches."""
    import numpy as np
    grid = np.full(_grid_shape(domain), -1, dtype=np.int32)
    for idx, rule in enumerate(rules):
        for box in rule.condition:
            region = grid[
                tuple(
                    slice(iv.lo - a.lo, iv.hi - a.lo + 1)
                    for iv, a in zip(box.intervals, domain.attributes)
                )
            ]
            region[region == -1] = idx
    return grid


def _outcome_grid(domain: DomainSpec, rules: tuple[Rule, ...]) -> np.ndarray:
    import numpy as np
    codes = np.array([_OUTCOME_CODE[r.decision] for r in rules] + [-1], dtype=np.int8)
    return codes[_first_match_grid(domain, rules)]


def _first_difference(domain: DomainSpec, a: np.ndarray, b: np.ndarray) -> Packet | None:
    import numpy as np
    diff = np.flatnonzero(a.ravel() != b.ravel())
    if diff.size == 0:
        return None
    # C-order ravel makes the first flat index the lexicographically
    # smallest packet in attribute order.
    coords = np.unravel_index(int(diff[0]), a.shape)
    return tuple(int(c) + attr.lo for c, attr in zip(coords, domain.attributes))


def _apply_default(grid: np.ndarray, default: Decision | None) -> np.ndarray:
    if default is None:
        return grid
    import numpy as np
    return np.where(grid == -1, _OUTCOME_CODE[default], grid)


def equivalent(r1: Ruleset, r2: Ruleset, *, default: Decision | None = None) -> EquivalenceResult:
    """Exhaustively compare two rulesets packet for packet.

    By default outcomes are compared three-valued (accept / deny /
    no-match), so a positive verdict holds under any default policy.
    Passing ``default`` folds no-match into that decision first, which is
    how a rewritten ruleset is checked against its declared policy.
    """
    if r1.domain != r2.domain:
        raise DomainError("rulesets declare different domains")
    _check_budget(r1.domain)
    g1 = _apply_default(_outcome_grid(r1.domain, r1.rules), default)
    g2 = _apply_default(_outcome_grid(r2.domain, r2.rules), default)
    witness = _first_difference(r1.domain, g1, g2)
    return EquivalenceResult(witness is None, witness)


def find_shadowed(ruleset: Ruleset) -> set[int]:
    """Positions of rules that are never any packet's first match."""
    import numpy as np
    _check_budget(ruleset.domain)
    grid = _first_match_grid(ruleset.domain, ruleset.rules)
    reached = set(np.unique(grid).tolist())
    return {r.position for idx, r in enumerate(ruleset.rules) if idx not in reached}


def find_redundant(ruleset: Ruleset) -> set[int]:
    """Positions of non-shadowed rules whose removal changes no packet's outcome."""
    shadowed = find_shadowed(ruleset)
    base = _outcome_grid(ruleset.domain, ruleset.rules)
    redundant = set()
    for idx, rule in enumerate(ruleset.rules):
        if rule.position in shadowed:
            continue
        rest = ruleset.rules[:idx] + ruleset.rules[idx + 1 :]
        if (base == _outcome_grid(ruleset.domain, rest)).all():
            redundant.add(rule.position)
    return redundant


def _sample_outcomes(
    domain: DomainSpec,
    rules: tuple[Rule, ...],
    columns: list[np.ndarray],
    orders: dict[int, np.ndarray],
) -> np.ndarray:
    """First-match outcome code of every sample, -1 where no rule matches.

    Each box looks only at the samples inside its range on the attribute
    where it covers the smallest share of the domain: uniform samples
    make that the attribute with the fewest expected hits.  ``orders``
    holds the argsort of each column some box has picked; callers share
    it between rulesets checked on the same columns.
    """
    import numpy as np
    widths = [a.hi - a.lo + 1 for a in domain.attributes]
    out = np.full(columns[0].size, -1, dtype=np.int8)
    for rule in rules:
        code = _OUTCOME_CODE[rule.decision]
        for box in rule.condition:
            ivs = box.intervals
            k = min(range(len(ivs)), key=lambda j: ivs[j].size / widths[j])
            if k not in orders:
                orders[k] = np.argsort(columns[k])
            order, col = orders[k], columns[k]
            start = np.searchsorted(col, ivs[k].lo, side="left", sorter=order)
            stop = np.searchsorted(col, ivs[k].hi, side="right", sorter=order)
            cand = order[start:stop]
            cand = cand[out[cand] == -1]
            for j, (iv, column) in enumerate(zip(ivs, columns)):
                if j != k and cand.size:
                    values = column[cand]
                    cand = cand[(values >= iv.lo) & (values <= iv.hi)]
            out[cand] = code
    return out


def _sample_columns(domain: DomainSpec, samples: int, seed: int) -> list[np.ndarray]:
    """Seeded uniform random packets, one int64 column per attribute."""
    import numpy as np
    for a in domain.attributes:
        if not -(2**63) <= a.lo <= a.hi < 2**63:
            raise DomainError(
                f"attribute {a.name} [{a.lo},{a.hi}] does not fit in 64-bit integers; "
                "sampling draws int64 packets"
            )
    rng = np.random.default_rng(seed)
    return [
        rng.integers(a.lo, a.hi, size=samples, endpoint=True, dtype=np.int64)
        for a in domain.attributes
    ]


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
    orders: dict[int, np.ndarray] = {}
    o1 = _sample_outcomes(r1.domain, r1.rules, columns, orders)
    o2 = _sample_outcomes(r2.domain, r2.rules, columns, orders)
    diff = (o1 != o2).nonzero()[0]
    if diff.size == 0:
        return EquivalenceResult(True)
    first = int(diff[0])
    return EquivalenceResult(False, tuple(int(col[first]) for col in columns))
