"""The level-wise node kernel against the object trees it replaced.

``quadtree.build`` and ``kdtree.build_kd`` insert one point at a time into
linked nodes; they are the reference for ``quadtree._node_extents`` (which
works on x-ranks) and the ``profile_xy`` wrappers that sum its rank jumps.
``reference_from_events`` is the dict-based
``StepProfile.from_events`` from before ``from_extents`` existed, kept
verbatim as the reference for ``from_extents``' sort-and-cumsum canonical
form.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmquad import kdtree, quadtree
from pmquad.errors import DuplicateCoordinateError
from pmquad.geom import Point2, StepProfile
from pmquad.quadtree import _KD_H, _KD_V, _QUAD, _node_extents

AXIS = {_KD_V: "v", _KD_H: "h"}
RULES = (_QUAD, _KD_V, _KD_H)


def object_tree(xs, ys, rule):
    pts = [Point2(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]
    return quadtree.build(pts) if rule == _QUAD else kdtree.build_kd(pts, AXIS[rule])


def profile_xy(xs, ys, rule):
    return quadtree.profile_xy(xs, ys) if rule == _QUAD else kdtree.profile_xy(xs, ys, AXIS[rule])


def depth_counts(tree):
    """Node count at each depth, by walking the object tree."""
    counts = {}
    stack = [(tree.root, 0)] if tree.root is not None else []
    while stack:
        node, d = stack.pop()
        counts[d] = counts.get(d, 0) + 1
        kids = node.children if hasattr(node, "children") else (node.low, node.high)
        stack.extend((c, d + 1) for c in kids if c is not None)
    return [counts[d] for d in range(len(counts))]


def reference_from_events(events):
    acc = {0.0: 0}
    for pos, delta in events:
        if pos >= 1.0:
            continue
        acc[pos] = acc.get(pos, 0) + delta
    breakpoints = [0.0]
    values = [acc[0.0]]
    level = acc[0.0]
    for pos in sorted(acc):
        if pos == 0.0:
            continue
        delta = acc[pos]
        if delta == 0:
            continue
        level += delta
        breakpoints.append(pos)
        values.append(level)
    return breakpoints, values


@st.composite
def point_sets(draw):
    """(xs, ys): uniform points, some snapped to coarse grids (so coordinates
    repeat) and some moved to the square's edges 0.0, -0.0 and 1.0."""
    n = draw(st.one_of(st.sampled_from((0, 1, 2, 3, 4, 5, 300)), st.integers(0, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs, ys = rng.random(n), rng.random(n)
    grid = draw(st.sampled_from((0, 4, 16, 1024)))
    if grid:
        snap = rng.random(n) < draw(st.sampled_from((0.02, 0.3, 1.0)))
        xs[snap] = np.round(xs[snap] * grid) / grid
        ys[snap] = np.round(ys[snap] * grid) / grid
    for a in (xs, ys):
        for edge in (0.0, -0.0, 1.0):
            if n and draw(st.booleans()):
                a[int(rng.integers(n))] = edge
    return xs, ys


class TestNodeExtentsMatchObjectTrees:
    @given(point_sets(), st.sampled_from(RULES), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_profile_supremum_and_depth_counts(self, points, rule, as_list):
        xs, ys = points
        if as_list:
            xs, ys = xs.tolist(), ys.tolist()
        try:
            tree = object_tree(xs, ys, rule)
        except DuplicateCoordinateError as exc:
            with pytest.raises(DuplicateCoordinateError, match=re.escape(str(exc))):
                profile_xy(xs, ys, rule)
            return
        prof = profile_xy(xs, ys, rule)
        expect = quadtree.profile(tree)
        assert prof == expect
        assert prof.max_segment() == expect.max_segment()
        assert prof.max_segment() == quadtree.supremum(tree)
        lo, hi, pos, counts = _node_extents(xs, ys, rule)
        x0, x1 = pos[lo], pos[hi]
        assert counts == depth_counts(tree)
        assert sorted(zip(x0.tolist(), x1.tolist())) == sorted(
            (node.cell.x0, node.cell.x1) for node in tree.nodes()
        )

    @pytest.mark.parametrize("rule", RULES)
    def test_large_tree(self, rule):
        rng = np.random.default_rng([20000, rule])
        xs, ys = rng.random(20000), rng.random(20000)
        xs[rng.integers(20000)], ys[rng.integers(20000)] = -0.0, 1.0
        tree = object_tree(xs, ys, rule)
        prof = profile_xy(xs, ys, rule)
        assert prof == quadtree.profile(tree)
        assert prof.max_segment() == quadtree.supremum(tree)
        lo, hi, pos, counts = _node_extents(xs, ys, rule)
        assert counts == depth_counts(tree)
        assert sorted(zip(pos[lo].tolist(), pos[hi].tolist())) == sorted(
            (node.cell.x0, node.cell.x1) for node in tree.nodes()
        )

    @pytest.mark.parametrize("rule", RULES)
    def test_empty_input(self, rule):
        x0, x1, _, counts = _node_extents([], [], rule)
        assert x0.size == x1.size == 0 and counts == []
        assert profile_xy([], [], rule) == StepProfile([0.0], [0])

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9, np.nan, np.inf])
    def test_outside_unit_square_rejected(self, rule, bad):
        rng = np.random.default_rng(7)
        for axis in (0, 1):
            xy = rng.random((2, 20))
            xy[axis, 13] = bad
            xy[1 - axis, 3] = xy[1 - axis, 2]  # a repeat must not mask the range error
            with pytest.raises(ValueError, match="outside the unit square"):
                profile_xy(xy[0], xy[1], rule)

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9, -np.inf, np.inf, np.nan])
    def test_outside_unit_square_rejected_without_repeats(self, rule, bad):
        rng = np.random.default_rng(8)
        for axis in (0, 1):
            xy = rng.random((2, 20))
            xy[axis, 13] = bad
            message = re.escape(f"point ({xy[0, 13]}, {xy[1, 13]}) outside the unit square")
            with pytest.raises(ValueError, match=message):
                profile_xy(xy[0], xy[1], rule)

    @pytest.mark.parametrize("rule", RULES)
    def test_unequal_or_non_1d_rejected(self, rule):
        with pytest.raises(ValueError):
            profile_xy([0.2, 0.7], [0.5], rule)
        with pytest.raises(ValueError):
            profile_xy(np.full((2, 2), 0.5), np.full((2, 2), 0.5), rule)

    def test_duplicate_message_names_the_first_repeat(self):
        xs = [0.1, 0.2, 0.3, 0.2, 0.5]
        ys = [0.1, 0.2, 0.1, 0.4, 0.6]  # point 2 repeats a y, point 3 an x
        with pytest.raises(DuplicateCoordinateError, match="point 2 "):
            quadtree.profile_xy(xs, ys)

    def test_degenerate_chain_is_one_node_per_level(self):
        # points on the diagonal in arrival order make a path of length n
        xs = np.linspace(0.0, 1.0, 200)
        *_, counts = _node_extents(xs, xs, _QUAD)
        assert counts == [1] * 200
        assert quadtree.profile_xy(xs, xs) == quadtree.profile(object_tree(xs, xs, _QUAD))


events = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0, 1.5)),
            st.floats(0.0, 1.25, allow_nan=False),
        ),
        st.sampled_from((-2, -1, 1, 1, 2)),
    ),
    max_size=60,
)


class TestFromExtents:
    @given(events)
    @settings(max_examples=300, deadline=None)
    def test_from_extents_matches_unit_events(self, evs):
        x0 = [pos for pos, d in evs if d > 0]
        x1 = [pos for pos, d in evs if d < 0]
        unit = [(a, 1) for a in x0] + [(b, -1) for b in x1]
        p = StepProfile.from_extents(np.array(x0), np.array(x1))
        assert (p.breakpoints, p.values) == reference_from_events(unit)
        assert all(type(b) is float for b in p.breakpoints)
        assert all(type(v) is int for v in p.values)

    @given(events)
    @settings(max_examples=300, deadline=None)
    def test_max_segment_is_the_first_maximum(self, evs):
        p = StepProfile.from_extents([pos for pos, d in evs if d > 0],
                                     [pos for pos, d in evs if d < 0])
        best = max(p.values)
        i = p.values.index(best)
        ends = p.breakpoints[1:] + [1.0]
        assert p.max_segment() == (best, (p.breakpoints[i], ends[i]))

    def test_max_segment_tie(self):
        p = StepProfile([0.0, 0.25, 0.5, 0.75], [1, 3, 1, 3])
        assert p.max_segment() == (3, (0.25, 0.5))
        assert StepProfile([0.0, 0.5], [2, 1]).max_segment() == (2, (0.0, 0.5))
        assert StepProfile([0.0, 0.5], [1, 2]).max_segment() == (2, (0.5, 1.0))
