"""Closed integer intervals and axis-aligned boxes.

A rule condition constrains each packet attribute to a closed integer
range; a box is one such range per attribute, i.e. a hyperrectangle in
packet space.  An ``Interval`` is a ``(lo, hi)`` tuple and a ``Box`` a tuple
of Intervals, so a rule's condition is what the exclusion kernel reads.
Everything in this module is an immutable value and every operation is a
pure function, so concurrent use needs no locking.

The empty set is always represented by absence (``None`` for intervals,
an empty list for boxes), never by an inverted interval.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import ArityError, DomainError


class Interval(NamedTuple("Interval", [("lo", int), ("hi", int)])):
    """Closed integer interval [lo, hi], inclusive at both ends, as a (lo, hi) tuple."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int) -> Interval:
        if lo > hi:
            raise ValueError(f"inverted interval [{lo},{hi}]")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _make(cls, iterable) -> Interval:
        # the base's _make, which _replace calls too, would skip the lo > hi check
        return cls(*iterable)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


class Box(tuple):
    """A tuple of one Interval per attribute: a single conjunctive condition term."""

    __slots__ = ()

    @classmethod
    def from_pairs(cls, *pairs: tuple[int, int]) -> Box:
        return cls([Interval(lo, hi) for lo, hi in pairs])

    @property
    def intervals(self) -> Box:
        return self

    @property
    def p(self) -> int:
        return len(self)

    def contains(self, packet: tuple[int, ...]) -> bool:
        if len(packet) != len(self):
            raise ArityError(f"packet has {len(packet)} values, box has {len(self)} attributes")
        return all(lo <= v <= hi for (lo, hi), v in zip(self, packet))

    def __repr__(self) -> str:
        return "(" + " ".join(map(repr, self)) + ")"


@dataclass(frozen=True, slots=True)
class AttributeDomain:
    """Name and inclusive bounds of one packet attribute."""

    name: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"attribute {self.name}: lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True, slots=True)
class DomainSpec:
    """Ordered attribute bounds shared by all rules of a ruleset."""

    attributes: tuple[AttributeDomain, ...]

    def __post_init__(self):
        if not self.attributes:
            raise ValueError("a domain needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in {names}")

    @classmethod
    def of(cls, *attrs: tuple[str, int, int]) -> DomainSpec:
        return cls(tuple(AttributeDomain(*a) for a in attrs))

    @classmethod
    def five_tuple(cls) -> DomainSpec:
        """The standard IPv4 filtering domain: protocol, addresses, ports."""
        return cls.of(
            ("protocol", 0, 255),
            ("source", 0, 2**32 - 1),
            ("sport", 0, 65535),
            ("destination", 0, 2**32 - 1),
            ("dport", 0, 65535),
        )

    @property
    def p(self) -> int:
        return len(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def check_box(self, box: Box) -> None:
        if len(box) != self.p:
            raise ArityError(f"box has {len(box)} attributes, domain has {self.p}")
        for a, (lo, hi) in zip(self.attributes, box):
            if lo < a.lo or hi > a.hi:
                raise DomainError(f"[{lo},{hi}] outside attribute {a.name} [{a.lo},{a.hi}]")

    def check_packet(self, packet: tuple[int, ...]) -> None:
        if len(packet) != self.p:
            raise ArityError(f"packet has {len(packet)} values, domain has {self.p}")
        for attr, v in zip(self.attributes, packet):
            if v < attr.lo or v > attr.hi:
                raise DomainError(f"value {v} outside attribute {attr.name} [{attr.lo},{attr.hi}]")


def interval_intersect(a: Interval, b: Interval) -> Interval | None:
    """Intersection of two intervals, or None when they do not overlap."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    return Interval(lo, hi) if lo <= hi else None


def interval_subtract(b: Interval, a: Interval) -> list[Interval]:
    """Points of b not in a, as up to two disjoint intervals in ascending order."""
    if b.hi < a.lo or a.hi < b.lo:
        return [b]
    pieces = []
    if b.lo < a.lo:
        pieces.append(Interval(b.lo, a.lo - 1))
    if b.hi > a.hi:
        pieces.append(Interval(a.hi + 1, b.hi))
    return pieces


def box_intersects(a: Box, b: Box) -> bool:
    """True iff the boxes share at least one packet (overlap on every attribute)."""
    if len(a) != len(b):
        raise ArityError(f"boxes have {len(a)} and {len(b)} attributes")
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if ahi < blo or bhi < alo:
            return False
    return True


def box_subtract(b: Box, a: Box) -> list[Box]:
    """b minus a as disjoint boxes, in ``subtract``'s order: [b] when the
    boxes are disjoint, [] when a covers b, and at most 2p boxes."""
    if not box_intersects(b, a):
        return [b]
    return [Box.from_pairs(*piece) for piece in subtract(b, a)]


# the exclusion kernel's box, one (lo, hi) per attribute: a Box, or a plain
# tuple for a slab the kernel made, until Box.from_pairs turns it into one
Pairs = tuple[tuple[int, int], ...]


def subtract(b: Pairs, a: Pairs) -> list[Pairs]:
    """b minus a, for boxes that meet, by slab decomposition: slab k keeps
    attributes before k on the intersection (b's own pair where a covers
    it), attribute k on the residual difference, lower piece first, and
    attributes after k on b's ranges.  Empty slabs are dropped."""
    out = []
    prefix = ()
    for k, bk in enumerate(b):
        blo, bhi = bk
        alo, ahi = a[k]
        if blo < alo:
            out.append(prefix + ((blo, alo - 1),) + b[k + 1 :])
        if ahi < bhi:
            out.append(prefix + ((ahi + 1, bhi),) + b[k + 1 :])
        prefix += (bk if alo <= blo and bhi <= ahi else (max(blo, alo), min(bhi, ahi)),)
    return out


def exclude(working: Sequence[Pairs], cut: Sequence[Pairs]) -> Sequence[Pairs]:
    """The packets of the pairwise-disjoint boxes ``working`` that no box of ``cut`` holds.
    Each box of ``cut`` is cut from the whole working set in turn, so the result stays
    pairwise disjoint.  Only boxes that meet are split; when none do, ``working`` is returned."""
    for a in cut:
        if not working:
            break
        refined = []
        hit = False
        for w in working:
            for (wlo, whi), (alo, ahi) in zip(w, a):
                if whi < alo or ahi < wlo:
                    refined.append(w)
                    break
            else:
                refined += subtract(w, a)
                hit = True
        if hit:
            working = refined
    return working


def coalesce(boxes: Sequence[Pairs]) -> list[Pairs]:
    """Merge pairwise-disjoint boxes that agree on all attributes but one and
    abut on it, until no two do; the packets covered stay the same.  A pass on
    one attribute merges the abutting runs of boxes that agree elsewhere, so
    the set returned depends only on the set given."""
    rows = list(boxes)
    p = len(rows[0]) if rows else 0
    k = idle = 0
    while idle < p and len(rows) > 1:
        groups: dict[tuple, list] = {}
        for row in rows:
            groups.setdefault(row[:k] + row[k + 1 :], []).append(row)
        idle += 1
        if len(groups) < len(rows):
            rows = []
            for group in groups.values():
                if len(group) == 1:
                    rows += group
                    continue
                group.sort(key=itemgetter(k))
                run, *rest = group
                for row in rest:
                    if run[k][1] + 1 == row[k][0]:
                        run = run[:k] + ((run[k][0], row[k][1]),) + run[k + 1 :]
                        idle = 1
                    else:
                        rows.append(run)
                        run = row
                rows.append(run)
        k = (k + 1) % p
    return rows


def hull(boxes: Sequence[Pairs]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lower and upper corner of the smallest box that holds a non-empty
    list of boxes: the min and max of their bounds on each attribute."""
    los, his = zip(*(zip(*box) for box in boxes))
    return tuple(map(min, zip(*los))), tuple(map(max, zip(*his)))


def _sweep(cols: list[tuple[Sequence[int], Sequence[int]]]) -> Iterator[tuple[int, list[int]]]:
    """Every pair of rows whose boxes share a packet, once, as ``(a, hits)``
    for each row a with hits, given one ``(lo, hi)`` column pair per attribute.

    A sort-and-sweep on the attribute where the fewest pairs overlap gives
    each row the rows sorted after it whose ``lo`` lies in its range there.
    The other attributes filter them, fewest overlapping pairs first, each
    skipped for a row whose range there meets every row's."""

    def overlapping(t: int) -> int:
        # ordered pairs (i, j) with lo_j <= hi_i on attribute t
        los, his = cols[t]
        return sum(map(bisect_right, repeat(sorted(los)), his))

    k, *rest = sorted(range(len(cols)), key=overlapping)
    los_k, his_k = cols[k]
    rows = sorted(range(len(los_k)), key=los_k.__getitem__)
    keys = list(map(los_k.__getitem__, rows))
    top = [max(los) for los, _ in cols]
    bottom = [min(his) for _, his in cols]
    for start, a in enumerate(rows, 1):
        stop = bisect_right(keys, his_k[a], start)
        if stop == start:
            continue
        hits = rows[start:stop]
        for t in rest:
            los, his = cols[t]
            l, h = los[a], his[a]
            if h < top[t] or l > bottom[t]:
                hits = [b for b in hits if los[b] <= h and l <= his[b]]
                if not hits:
                    break
        else:
            yield a, hits


def touching_pairs(
    lo: Sequence[tuple[int, ...] | None], hi: Sequence[tuple[int, ...] | None]
) -> tuple[list[int], list[int], list[int]]:
    """Every pair of rows of the corner lists whose boxes share a packet, by ``_sweep``;
    a row whose corners are None takes part in no pair.  Returns symmetric CSR lists
    ``(ptr, split, nbr)``: row i's neighbours, ascending, are ``nbr[ptr[i]:ptr[i + 1]]``,
    those before it ending and those after it starting at ``split[i]``."""
    live = [i for i, c in enumerate(lo) if c is not None]
    adj: list[list[int]] = [[] for _ in lo]
    if live:
        cols = list(zip(zip(*[lo[i] for i in live]), zip(*[hi[i] for i in live])))
        for a, hits in _sweep(cols):
            if len(live) < len(lo):  # back to row numbers
                a, hits = live[a], [live[b] for b in hits]
            adj[a] += hits
            for b in hits:
                adj[b].append(a)
    ptr, split, total = [0], [], 0
    for i, row in enumerate(adj):
        row.sort()
        split.append(total + bisect_left(row, i))
        total += len(row)
        ptr.append(total)
    return ptr, split, list(chain.from_iterable(adj))


def boxes_pairwise_disjoint(boxes: list[Box] | tuple[Box, ...]) -> bool:
    """True iff no two boxes in the sequence share a packet: ``_sweep``, stopped
    at the first pair that meets.  Raises ArityError on mixed attribute counts."""
    if len(boxes) < 2:
        return True
    if len(arities := set(map(len, boxes))) > 1:
        raise ArityError(f"boxes have {min(arities)} and {max(arities)} attributes")
    return next(_sweep([tuple(zip(*column)) for column in zip(*boxes)]), None) is None
