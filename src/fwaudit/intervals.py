"""Closed integer intervals and axis-aligned boxes.

A rule condition constrains each packet attribute to a closed integer
range; a box is one such range per attribute, i.e. a hyperrectangle in
packet space.  Everything in this module is an immutable value and every
operation is a pure function, so concurrent use needs no locking.

The empty set is always represented by absence (``None`` for intervals,
an empty list for boxes), never by an inverted interval.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from .errors import ArityError, DomainError


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed integer interval [lo, hi], inclusive at both ends."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo},{self.hi}]")

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True, slots=True)
class Box:
    """One interval per attribute: a single conjunctive condition term."""

    intervals: tuple[Interval, ...]

    @classmethod
    def from_pairs(cls, *pairs: tuple[int, int]) -> Box:
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))

    @property
    def p(self) -> int:
        return len(self.intervals)

    def contains(self, packet: tuple[int, ...]) -> bool:
        if len(packet) != len(self.intervals):
            raise ArityError(
                f"packet has {len(packet)} values, box has {len(self.intervals)} attributes"
            )
        return all(iv.contains(v) for iv, v in zip(self.intervals, packet))

    def __repr__(self) -> str:
        return "(" + " ".join(repr(iv) for iv in self.intervals) + ")"


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

    def size(self) -> int:
        """Total number of distinct packets in the domain."""
        return math.prod(a.hi - a.lo + 1 for a in self.attributes)

    def check_box(self, box: Box) -> None:
        if box.p != self.p:
            raise ArityError(f"box has {box.p} attributes, domain has {self.p}")
        for attr, iv in zip(self.attributes, box.intervals):
            if iv.lo < attr.lo or iv.hi > attr.hi:
                raise DomainError(f"{iv} outside attribute {attr.name} [{attr.lo},{attr.hi}]")

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
    if len(a.intervals) != len(b.intervals):
        raise ArityError(f"boxes have {a.p} and {b.p} attributes")
    for x, y in zip(a.intervals, b.intervals):
        if x.hi < y.lo or y.hi < x.lo:
            return False
    return True


def box_subtract(b: Box, a: Box) -> list[Box]:
    """Decompose b minus a into disjoint boxes.

    Uses slab decomposition: slab k keeps attributes before k on the
    intersection, attribute k on the residual difference, and attributes
    after k on b's original ranges.  A residual with two pieces yields two
    boxes, lower piece first; empty slabs are dropped.  Slabs are emitted
    in ascending attribute order, so identical inputs always give the
    identical, identically-ordered result.

    Returns [b] unchanged when the boxes are disjoint, and [] when a
    covers b entirely.  The result has at most 2p boxes, and reuses b's
    own intervals wherever a covers them.
    """
    if not box_intersects(b, a):
        return [b]
    out: list[Box] = []
    prefix: tuple[Interval, ...] = ()
    for k, (b_k, a_k) in enumerate(zip(b.intervals, a.intervals)):
        suffix = b.intervals[k + 1 :]
        for piece in interval_subtract(b_k, a_k):
            out.append(Box(prefix + (piece,) + suffix))
        prefix += (b_k if a_k.lo <= b_k.lo and b_k.hi <= a_k.hi else interval_intersect(b_k, a_k),)
    return out


def coalesce(boxes: Sequence[Box]) -> list[Box]:
    """Merge pairwise-disjoint boxes that agree on all attributes but one and
    abut on it, until no two do; the packets covered stay the same.

    A pass on one attribute merges the abutting runs of boxes that agree
    elsewhere, so the set returned depends only on the set given.
    """
    # each box as its (lo, hi) pairs, beside the Box it came from (None once merged)
    rows = [(tuple((iv.lo, iv.hi) for iv in b.intervals), b) for b in boxes]
    p = boxes[0].p if boxes else 0
    k = idle = 0
    while idle < p and len(rows) > 1:
        groups: dict[tuple, list] = {}
        for row in rows:
            groups.setdefault(row[0][:k] + row[0][k + 1 :], []).append(row)
        idle += 1
        if len(groups) < len(rows):
            rows = []
            for group in groups.values():
                group.sort(key=lambda row: row[0][k])
                (run, box), *rest = group
                for pairs, b in rest:
                    if run[k][1] + 1 == pairs[k][0]:
                        run, box = run[:k] + ((run[k][0], pairs[k][1]),) + run[k + 1 :], None
                        idle = 1
                    else:
                        rows.append((run, box))
                        run, box = pairs, b
                rows.append((run, box))
        k = (k + 1) % p
    return [b if b is not None else Box.from_pairs(*pairs) for pairs, b in rows]


def touching_pairs(
    lo: Sequence[tuple[int, ...] | None], hi: Sequence[tuple[int, ...] | None]
) -> tuple[list[int], list[int], list[int]]:
    """Every pair of rows of the corner lists whose boxes share a packet;
    a row whose corners are None takes part in no pair.

    Returns symmetric CSR lists ``(ptr, split, nbr)``: row i's neighbours,
    ascending, are ``nbr[ptr[i]:ptr[i + 1]]``, those before it ending and
    those after it starting at ``split[i]``.  A sort-and-sweep on the
    attribute where the fewest pairs overlap gives each row the rows
    sorted after it whose ``lo`` lies in its range there, so every pair is
    a candidate once.  The other attributes then filter the candidates,
    fewest overlapping pairs first, each skipped for a row whose range
    there meets every row's.
    """
    rows = [i for i, c in enumerate(lo) if c is not None]
    adj: list[list[int]] = [[] for _ in lo]
    if rows:
        # one (lo, hi) column pair per attribute, None on the rows left out
        p = len(lo[rows[0]])
        cols = [([c and c[t] for c in lo], [c and c[t] for c in hi]) for t in range(p)]

        def overlapping(t: int) -> int:
            # ordered pairs (i, j) with lo_j <= hi_i on attribute t
            los, his = cols[t]
            keys = sorted(map(los.__getitem__, rows))
            return sum(bisect_right(keys, his[i]) for i in rows)

        k, *rest = sorted(range(p), key=overlapping)
        rows.sort(key=cols[k][0].__getitem__)
        keys = list(map(cols[k][0].__getitem__, rows))
        top = [max(map(los.__getitem__, rows)) for los, _ in cols]
        bottom = [min(map(his.__getitem__, rows)) for _, his in cols]
        for start, a in enumerate(rows, 1):
            la, ha = lo[a], hi[a]
            stop = bisect_right(keys, ha[k], start)
            if stop == start:
                continue
            hits = rows[start:stop]
            for t in rest:
                l, h = la[t], ha[t]
                if hits and (h < top[t] or l > bottom[t]):
                    los, his = cols[t]
                    hits = [b for b in hits if los[b] <= h and l <= his[b]]
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
    """True iff no two boxes in the sequence share a packet.

    Raises ArityError when the boxes disagree on their attribute count.
    """
    if len(boxes) < 2:
        return True
    p = boxes[0].p
    for b in boxes:
        if b.p != p:
            raise ArityError(f"boxes have {p} and {b.p} attributes")
    lo = [tuple(iv.lo for iv in b.intervals) for b in boxes]
    hi = [tuple(iv.hi for iv in b.intervals) for b in boxes]
    return not touching_pairs(lo, hi)[2]
