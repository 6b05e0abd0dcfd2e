import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from fwaudit import (
    ArityError,
    Box,
    Decision,
    DomainSpec,
    Interval,
    ReportDocument,
    Rule,
    Ruleset,
    box_intersects,
    box_subtract,
    boxes_pairwise_disjoint,
    complete_detection,
    emit_report,
    generate,
    interval_intersect,
    interval_subtract,
    parse_ruleset,
    profile,
    serialize_ruleset,
)
from fwaudit.intervals import coalesce, exclude, subtract, touching_pairs

from conftest import FIXTURES, SD, box, make_table1, rule


def points(iv: Interval) -> set[int]:
    return set(range(iv.lo, iv.hi + 1))


def box_points(b: Box) -> set[tuple[int, ...]]:
    return set(itertools.product(*(range(lo, hi + 1) for lo, hi in b)))


intervals_0_15 = st.integers(0, 15).flatmap(
    lambda lo: st.integers(lo, 15).map(lambda hi: Interval(lo, hi))
)


def boxes_st(p: int, hi: int = 7):
    one = st.integers(0, hi).flatmap(
        lambda lo: st.integers(lo, hi).map(lambda h: Interval(lo, h))
    )
    return st.tuples(*([one] * p)).map(Box)


# endpoints at and next to the IPv4 address bounds, so that boxes often
# meet in a single point, plus values beyond int64 on both sides
EDGE_VALUES = (0, 1, 2, 2**32 - 2, 2**32 - 1)
WIDE_VALUES = EDGE_VALUES + (-(2**64), 2**64)


def edge_boxes_st(p: int, values=EDGE_VALUES):
    one = st.tuples(st.sampled_from(values), st.sampled_from(values)).map(
        lambda t: Interval(min(t), max(t))
    )
    return st.tuples(*([one] * p)).map(Box)


class TestInterval:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_make_and_replace_reject_inverted(self):
        # the named-tuple base's _make, which _replace calls, skips __new__
        with pytest.raises(ValueError):
            Interval._make((5, 4))
        with pytest.raises(ValueError):
            Interval(1, 2)._replace(lo=9)
        iv = Interval._make((1, 2))
        assert type(iv) is Interval and iv == (1, 2)
        assert iv._replace(hi=3) == Interval(1, 3)
        for other in (pickle.loads(pickle.dumps(iv)), copy.deepcopy(iv)):
            assert type(other) is Interval and other == iv

    def test_intersect_overlap(self):
        assert interval_intersect(Interval(20, 60), Interval(1, 30)) == Interval(20, 30)

    def test_intersect_disjoint(self):
        assert interval_intersect(Interval(1, 50), Interval(80, 100)) is None

    def test_intersect_point_identity(self):
        assert interval_intersect(Interval(5, 5), Interval(5, 5)) == Interval(5, 5)

    def test_subtract_leading_overlap(self):
        assert interval_subtract(Interval(1, 50), Interval(1, 30)) == [Interval(31, 50)]

    def test_subtract_disjoint(self):
        assert interval_subtract(Interval(1, 50), Interval(60, 90)) == [Interval(1, 50)]

    def test_subtract_middle_split(self):
        assert interval_subtract(Interval(1, 50), Interval(10, 40)) == [
            Interval(1, 9),
            Interval(41, 50),
        ]

    def test_subtract_self_is_empty(self):
        assert interval_subtract(Interval(3, 9), Interval(3, 9)) == []

    @given(intervals_0_15, intervals_0_15)
    def test_intersect_matches_set_semantics(self, a, b):
        got = interval_intersect(a, b)
        expected = points(a) & points(b)
        assert (set() if got is None else points(got)) == expected

    @given(intervals_0_15, intervals_0_15)
    def test_subtract_matches_set_semantics(self, b, a):
        got = interval_subtract(b, a)
        assert len(got) <= 2
        covered = set()
        for piece in got:
            ps = points(piece)
            assert not (ps & covered)
            covered |= ps
        assert covered == points(b) - points(a)
        assert got == sorted(got, key=lambda iv: iv.lo)


class TestBox:
    def test_intersects_overlapping(self):
        assert box_intersects(box((1, 30), (20, 45)), box((20, 60), (25, 35)))

    def test_intersects_disjoint_attribute(self):
        assert not box_intersects(box((1, 50), (1, 50)), box((80, 100), (1, 50)))

    def test_intersects_self(self):
        b = box((3, 7), (2, 9))
        assert box_intersects(b, b)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            box_intersects(box((1, 2)), box((1, 2), (3, 4)))
        with pytest.raises(ArityError):
            box_subtract(box((1, 2)), box((1, 2), (3, 4)))

    def test_subtract_single_slab(self):
        got = box_subtract(box((1, 50), (1, 50)), box((1, 60), (1, 30)))
        assert got == [box((1, 50), (31, 50))]

    def test_subtract_four_slabs_in_trace_order(self):
        got = box_subtract(box((1, 50), (1, 50)), box((10, 40), (20, 30)))
        assert got == [
            box((1, 9), (1, 50)),
            box((41, 50), (1, 50)),
            box((10, 40), (1, 19)),
            box((10, 40), (31, 50)),
        ]

    def test_subtract_covered_is_empty(self):
        assert box_subtract(box((1, 50), (1, 50)), box((1, 60), (1, 60))) == []

    def test_subtract_disjoint_returns_operand(self):
        b = box((1, 10), (1, 10))
        assert box_subtract(b, box((20, 30), (1, 10))) == [b]

    def test_subtract_self_is_empty(self):
        b = box((2, 6), (3, 8))
        assert box_subtract(b, b) == []

    @pytest.mark.parametrize("p", [1, 2, 3])
    @given(data=st.data())
    def test_subtract_coverage_disjointness_cardinality(self, p, data):
        b = data.draw(boxes_st(p))
        a = data.draw(boxes_st(p))
        got = box_subtract(b, a)
        assert len(got) <= 2 * p
        covered = set()
        for piece in got:
            ps = box_points(piece)
            assert not (ps & covered), "pieces overlap"
            covered |= ps
        assert covered == box_points(b) - box_points(a)

    @given(boxes_st(2), boxes_st(2))
    def test_subtract_deterministic(self, b, a):
        assert box_subtract(b, a) == box_subtract(b, a)


class TestValueContract:
    """A box is a tuple of (lo, hi) int pairs and a condition a tuple of boxes, from
    parse to report: the exclusion kernel's form.  Interval and Box check hand-built
    pairs and are tuples of the same values."""

    def test_box_is_its_pairs(self):
        b = Box.from_pairs((1, 2), (3, 4))
        assert b == ((1, 2), (3, 4))
        assert b.intervals is b
        assert [type(iv) for iv in b] == [Interval, Interval]

    def test_interval_is_a_pair(self):
        # Interval(5, 4) still raises: TestInterval.test_inverted_rejected
        iv = Interval(3, 4)
        assert iv == (3, 4) and (iv.lo, iv.hi) == (3, 4)

    @pytest.mark.parametrize("source", ["parsed", "complete_detection", "from_json"])
    def test_rulesets_copy_and_convert(self, source):
        if source == "parsed":
            rs = parse_ruleset((FIXTURES / "table1.rules").read_text())
        else:
            # the audit of a parsed file, so that the rules it keeps as they came are parsed too
            generated = generate(profile("intermediate", 1), 120, DomainSpec.five_tuple())
            report = complete_detection(parse_ruleset(serialize_ruleset(generated)))
            rs = report.transformed
            if source == "from_json":
                doc = ReportDocument.from_json(emit_report(report, "json"))
                rs = Ruleset(doc.domain, doc.rules)
            assert rs == report.transformed
            assert any(len(r.condition) > 1 for r in rs.rules)
        for other in (rs, pickle.loads(pickle.dumps(rs)), copy.deepcopy(rs)):
            assert other == rs
            assert all(type(r.condition) is tuple for r in other.rules)
            assert all(type(b) is tuple and all(type(iv) is tuple and len(iv) == 2 for iv in b)
                       for r in other.rules for b in r.condition)
            assert all(type(v) is int for r in other.rules for b in r.condition for iv in b for v in iv)
        as_dict = dataclasses.asdict(rs)
        assert [r["condition"] for r in as_dict["rules"]] == [r.condition for r in rs.rules]

    def test_hand_built_twin_equals_the_parsed_ruleset(self):
        # a Box of Intervals compares and hashes as its pairs
        twin = Ruleset(SD, tuple(
            Rule(r.position, tuple(Box.from_pairs(*b) for b in r.condition), r.decision)
            for r in make_table1().rules
        ))
        parsed = parse_ruleset(serialize_ruleset(twin))
        assert parsed == twin and hash(parsed) == hash(twin)
        assert type(parsed.rules[0].condition[0]) is tuple
        assert type(twin.rules[0].condition[0]) is Box

    @pytest.mark.parametrize("pair", [(5, 3), (1, 0)])
    def test_ruleset_rejects_an_inverted_pair(self, pair):
        # an exact tuple does not check itself as Interval(5, 3) does, so the
        # Ruleset constructor does, naming the pair
        lo, hi = pair
        with pytest.raises(ValueError, match=rf"inverted interval \[{lo},{hi}\]"):
            Ruleset(SD, (Rule(1, ((pair, (1, 100)),), Decision.ACCEPT),))
        with pytest.raises(ValueError, match=rf"inverted interval \[{lo},{hi}\]"):
            SD.check_box(((1, 100), pair))

    def test_exclude_returns_the_condition_no_cut_meets(self):
        r = rule(1, "accept", ((1, 10), (1, 10)), ((20, 30), (20, 30)))
        assert exclude(r.condition, [box((11, 19), (1, 100)), box((1, 30), (40, 50))]) is r.condition
        assert exclude(r.condition, [box((5, 25), (5, 5))]) is not r.condition


class TestHelpers:
    def test_pairwise_disjoint(self):
        assert boxes_pairwise_disjoint([box((1, 2), (1, 2)), box((3, 4), (1, 2))])
        assert not boxes_pairwise_disjoint([box((1, 3), (1, 2)), box((3, 4), (1, 2))])
        assert boxes_pairwise_disjoint([])
        assert boxes_pairwise_disjoint([box((0, 2**32 - 1))])
        top = 2**32 - 1
        assert not boxes_pairwise_disjoint([box((0, 5), (0, top)), box((5, 9), (top, top))])
        assert boxes_pairwise_disjoint([box((0, 4), (0, top)), box((5, 9), (top, top))])

    @pytest.mark.parametrize("p, values", [(1, EDGE_VALUES), (3, EDGE_VALUES), (2, WIDE_VALUES)])
    @given(data=st.data())
    def test_pairwise_disjoint_matches_all_pairs(self, p, values, data):
        boxes = data.draw(st.lists(edge_boxes_st(p, values), max_size=8))
        expected = not any(box_intersects(a, b) for a, b in itertools.combinations(boxes, 2))
        assert boxes_pairwise_disjoint(boxes) == expected

    @pytest.mark.parametrize(
        "p, values", [(1, EDGE_VALUES), (3, EDGE_VALUES), (2, WIDE_VALUES), (5, EDGE_VALUES)]
    )
    @given(data=st.data())
    def test_touching_pairs_matches_all_pairs(self, p, values, data):
        # few distinct endpoints: equal lo values, single-point contact and
        # full-range intervals are common; WIDE_VALUES reach beyond 64 bits
        boxes = data.draw(st.lists(edge_boxes_st(p, values), max_size=10))
        lo = [tuple(lo for lo, _ in b) for b in boxes]
        hi = [tuple(hi for _, hi in b) for b in boxes]
        before, after = touching_pairs(lo, hi)
        assert len(before) == len(after) == len(boxes)
        for i, a in enumerate(boxes):
            expected = [j for j, b in enumerate(boxes) if j != i and box_intersects(a, b)]
            assert [*before[i], *after[i]] == expected
            assert list(before[i]) == [j for j in expected if j < i]
            # an empty side is the shared empty tuple, never a list of its own
            assert all(side if type(side) is list else side == () for side in (before[i], after[i]))

    @given(data=st.data())
    def test_pairwise_disjoint_mixed_arity_raises(self, data):
        boxes = data.draw(st.lists(edge_boxes_st(2), min_size=1, max_size=6))
        boxes.insert(data.draw(st.integers(0, len(boxes))), data.draw(edge_boxes_st(3)))
        with pytest.raises(ArityError):
            boxes_pairwise_disjoint(boxes)


def _mergeable(a: Box, b: Box) -> bool:
    differ = [k for k in range(len(a)) if a[k] != b[k]]
    if len(differ) != 1:
        return False
    x, y = a[differ[0]], b[differ[0]]
    return x.hi + 1 == y.lo or y.hi + 1 == x.lo


@st.composite
def disjoint_boxes_st(draw, p: int, offset: int):
    """Pairwise-disjoint boxes on a small grid shifted by ``offset``: some
    cells of a random grid (so many abut), or random boxes that miss the
    ones kept before them."""
    if draw(st.booleans()):
        axes = []
        for _ in range(p):
            cuts = sorted(draw(st.sets(st.integers(1, 7), max_size=3)))
            ends = [0, *cuts, 8]
            axes.append([Interval(offset + lo, offset + hi - 1) for lo, hi in zip(ends, ends[1:])])
        cells = list(itertools.product(*axes))
        picked = draw(st.lists(st.sampled_from(range(len(cells))), unique=True, max_size=12))
        return [Box(cells[i]) for i in picked]
    kept = []
    for b in draw(st.lists(boxes_st(p), max_size=12)):
        b = Box(tuple(Interval(offset + iv.lo, offset + iv.hi) for iv in b))
        if not any(box_intersects(b, k) for k in kept):
            kept.append(b)
    return kept


def merged(boxes: list[Box]) -> list[Box]:
    """``coalesce`` on Box values."""
    return [Box.from_pairs(*pairs) for pairs in coalesce([tuple(b) for b in boxes])]


class TestCoalesce:
    def test_merges_abutting_runs_only(self):
        got = merged([box((5, 9), (0, 3)), box((0, 4), (0, 3)), box((11, 12), (0, 3))])
        assert set(got) == {box((0, 9), (0, 3)), box((11, 12), (0, 3))}

    def test_merges_again_on_another_attribute(self):
        # the two left boxes merge on d; only then can they merge with the
        # right one on s
        got = merged([box((0, 4), (0, 1)), box((0, 4), (2, 3)), box((5, 9), (0, 3))])
        assert got == [box((0, 9), (0, 3))]

    def test_keeps_boxes_that_agree_nowhere(self):
        boxes = [box((0, 4), (0, 1)), box((5, 9), (2, 3))]
        assert merged(boxes) == boxes
        assert coalesce([]) == []

    @pytest.mark.parametrize("p, offset", [(1, 0), (2, 0), (3, 0), (2, 2**64), (2, -(2**64) - 8)])
    @given(data=st.data())
    def test_same_points_disjoint_maximal_and_order_free(self, p, offset, data):
        boxes = data.draw(disjoint_boxes_st(p, offset))
        got = merged(boxes)
        covered = set()
        for b in got:
            pts = box_points(b)
            assert not (pts & covered), "boxes overlap"
            covered |= pts
        assert covered == set().union(*map(box_points, boxes))
        assert not any(_mergeable(a, b) for a, b in itertools.combinations(got, 2))
        shuffled = data.draw(st.permutations(boxes))
        assert set(merged(shuffled)) == set(got)
        assert merged(boxes) == got


def reference_box_subtract(b: Box, a: Box) -> list[Box]:
    """Box-level slab decomposition: the kernel's ``subtract`` must give
    the same boxes in the same order."""
    if not box_intersects(b, a):
        return [b]
    out: list[Box] = []
    prefix: tuple[Interval, ...] = ()
    for k, (b_k, a_k) in enumerate(zip(b, a)):
        suffix = b[k + 1 :]
        for piece in interval_subtract(b_k, a_k):
            out.append(Box(prefix + (piece,) + suffix))
        prefix += (b_k if a_k.lo <= b_k.lo and b_k.hi <= a_k.hi else interval_intersect(b_k, a_k),)
    return out


def reference_coalesce(boxes: list[Box]) -> list[Box]:
    """Box-level coalescing: the kernel's ``coalesce`` must give the same
    boxes in the same order."""
    rows = [(tuple((iv.lo, iv.hi) for iv in b), b) for b in boxes]
    p = len(boxes[0]) if boxes else 0
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
                (run, box_), *rest = group
                for pairs, b in rest:
                    if run[k][1] + 1 == pairs[k][0]:
                        run, box_ = run[:k] + ((run[k][0], pairs[k][1]),) + run[k + 1 :], None
                        idle = 1
                    else:
                        rows.append((run, box_))
                        run, box_ = pairs, b
                rows.append((run, box_))
        k = (k + 1) % p
    return [b if b is not None else Box.from_pairs(*pairs) for pairs, b in rows]


def reference_exclude(working: list[Box], cut: list[Box]) -> list[Box]:
    """Each box of ``cut`` subtracted from the whole working set in turn."""
    for a in cut:
        working = [piece for w in working for piece in reference_box_subtract(w, a)]
    return working


class TestKernelMatchesReference:
    """The (lo, hi) kernel gives the Box-level boxes in the same order."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @given(data=st.data())
    def test_subtract(self, p, data):
        b = data.draw(boxes_st(p, hi=15))
        a = data.draw(boxes_st(p, hi=15))
        want = [tuple(piece) for piece in reference_box_subtract(b, a)]
        if box_intersects(b, a):
            assert subtract(tuple(b), tuple(a)) == want
        assert [tuple(piece) for piece in box_subtract(b, a)] == want

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @given(data=st.data())
    def test_exclude(self, p, data):
        working = data.draw(disjoint_boxes_st(p, 0))
        cut = data.draw(st.lists(boxes_st(p, hi=15), max_size=3))
        pairs = [tuple(b) for b in working]
        got = exclude(pairs, [tuple(a) for a in cut])
        assert got == [tuple(b) for b in reference_exclude(working, cut)]
        if not any(box_intersects(w, a) for w in working for a in cut):
            assert got is pairs

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @given(data=st.data())
    def test_coalesce(self, p, data):
        boxes = data.draw(disjoint_boxes_st(p, 0))
        pieces = data.draw(st.lists(boxes_st(p, hi=15), max_size=2))
        # slabs of an exclusion, which abut far more often than random boxes
        boxes = reference_exclude(boxes, pieces)
        assert coalesce([tuple(b) for b in boxes]) == [tuple(b) for b in reference_coalesce(boxes)]


class TestDomainSpec:
    def test_five_tuple_shape(self):
        dom = DomainSpec.five_tuple()
        assert dom.p == 5
        assert dom.names == ("protocol", "source", "sport", "destination", "dport")
        assert dom.attributes[1].hi == 2**32 - 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DomainSpec.of(("s", 0, 9), ("s", 0, 9))

    def test_check_box_bounds(self):
        dom = DomainSpec.of(("s", 0, 9))
        dom.check_box(box((0, 9)))
        with pytest.raises(Exception):
            dom.check_box(box((0, 10)))
