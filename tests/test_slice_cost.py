"""The block-filtered slice kernel against the two sequential loops it replaced.

``reference_quad`` and ``reference_kd`` are the per-point loops of
``quadtree.line_cost`` and ``kdtree.line_cost`` before they were merged into
``quadtree._slice_cost``, kept verbatim as the reference oracle.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmquad import kdtree, limitproc, quadtree
from pmquad.quadtree import _KD_H, _KD_V, _QUAD, HEAD, _slice_cost

SEQ = 256  # the whole-tree cut-off the kernel once had; its sizes stay covered


def reference_quad(xs, ys, s, x_lo=0.0, x_hi=1.0):
    xs = xs.tolist() if hasattr(xs, "tolist") else list(xs)
    ys = ys.tolist() if hasattr(ys, "tolist") else list(ys)
    yb = [0.0]  # slice i spans [yb[i], yb[i+1]) in y, the last one up to 1
    lo = [x_lo]
    hi = [x_hi]
    count = 0
    ins = yb.insert
    for x, y in zip(xs, ys):
        i = bisect_right(yb, y) - 1
        a = lo[i]
        b = hi[i]
        if a <= x and (x < b or x == b == x_hi == 1.0):
            count += 1
            if s < x:
                hi[i] = x
            else:
                lo[i] = x
            ins(i + 1, y)
            lo.insert(i + 1, lo[i])
            hi.insert(i + 1, hi[i])
    return count


def reference_kd(xs, ys, s, root_axis="v"):
    xs = xs.tolist() if hasattr(xs, "tolist") else list(xs)
    ys = ys.tolist() if hasattr(ys, "tolist") else list(ys)
    vertical_next = root_axis == "v"
    yb = [0.0]
    lo = [0.0]
    hi = [1.0]
    vert = [vertical_next]
    count = 0
    for x, y in zip(xs, ys):
        i = bisect_right(yb, y) - 1
        a = lo[i]
        b = hi[i]
        if a <= x and (x < b or x == b == 1.0):
            count += 1
            if vert[i]:
                if s < x:
                    hi[i] = x
                else:
                    lo[i] = x
                vert[i] = False
            else:
                vert[i] = True
                yb.insert(i + 1, y)
                lo.insert(i + 1, lo[i])
                hi.insert(i + 1, hi[i])
                vert.insert(i + 1, True)
    return count


# sizes at and around the head, the whole-tree cut SEQ and the block ends
# HEAD * 4^k; EDGE_SIZES adds those of doubling blocks after SEQ
BLOCK_SIZES = (HEAD - 1, HEAD, HEAD + 1, SEQ - 1, SEQ, SEQ + 1,
               4 * HEAD - 1, 4 * HEAD, 4 * HEAD + 1, 16 * HEAD - 1, 16 * HEAD, 16 * HEAD + 1,
               64 * HEAD - 1, 64 * HEAD, 64 * HEAD + 1)
EDGE_SIZES = tuple(sorted({0, 1, SEQ - 1, SEQ, SEQ + 1, 2 * SEQ - 1, 2 * SEQ, 2 * SEQ + 1,
                           4 * SEQ - 1, 4 * SEQ, 4 * SEQ + 1, 8 * SEQ + 3, *BLOCK_SIZES}))


@st.composite
def instances(draw):
    """(xs, ys, s, x_lo): points in [x_lo, 1] x [0, 1], some on coarse grids
    so that ties (x == s, x == 1.0, repeated y) actually occur."""
    n = draw(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(0, 12 * SEQ)))
    x_lo = draw(st.sampled_from((0.0, 0.0, -0.05, -0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = x_lo + (1.0 - x_lo) * rng.random(n)
    ys = rng.random(n)
    grid = draw(st.sampled_from((0, 4, 16, 1024)))
    if grid:
        snap = rng.random(n) < draw(st.sampled_from((0.05, 0.5, 1.0)))
        xs[snap] = np.round(xs[snap] * grid) / grid
        ys[snap] = np.round(ys[snap] * grid) / grid
        xs = np.clip(xs, x_lo, 1.0)
    ones = rng.random(n) < draw(st.sampled_from((0.0, 0.01, 0.2)))
    xs[ones] = 1.0
    s = draw(st.one_of(st.sampled_from((0.0, 1.0, 0.5, 0.25)), st.floats(0.0, 1.0)))
    return xs, ys, s, x_lo


class TestSliceCostMatchesSequentialLoops:
    @given(instances(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_quad_rule(self, inst, as_list):
        xs, ys, s, x_lo = inst
        expect = reference_quad(xs, ys, s, x_lo)
        if as_list:
            xs, ys = xs.tolist(), ys.tolist()
        assert _slice_cost(xs, ys, s, _QUAD) == expect
        assert quadtree.line_cost(xs, ys, s) == expect

    @given(instances(), st.sampled_from(("v", "h")), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_kd_rules(self, inst, axis, as_list):
        xs, ys, s, _ = inst
        xs = np.maximum(xs, 0.0)  # the 2-d tree root box is the unit square
        expect = reference_kd(xs, ys, s, axis)
        if as_list:
            xs, ys = xs.tolist(), ys.tolist()
        rule = _KD_V if axis == "v" else _KD_H
        assert _slice_cost(xs, ys, s, rule) == expect
        assert kdtree.line_cost(xs, ys, s, axis) == expect

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_edge_sizes_all_rules(self, n):
        rng = np.random.default_rng([2011, n])
        xs, ys = rng.random(n), rng.random(n)
        xs[::7] = 1.0
        for s in (0.0, 0.3, 1.0):
            assert _slice_cost(xs, ys, s, _QUAD) == reference_quad(xs, ys, s)
            assert _slice_cost(xs, ys, s, _KD_V) == reference_kd(xs, ys, s, "v")
            assert _slice_cost(xs, ys, s, _KD_H) == reference_kd(xs, ys, s, "h")

    @pytest.mark.parametrize("x_lo", [0.0, -0.25])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_block_ends_all_rules(self, n, x_lo):
        # ties on a coarse grid put points on slice and hull edges at every
        # block end; the 2-d tree root box is the unit square
        rng = np.random.default_rng([2012, n])
        xs = np.round(x_lo + (1.0 - x_lo) * rng.random(n), 3)
        ys = np.round(rng.random(n), 3)
        xs[::5] = 1.0
        kx = np.maximum(xs, 0.0)
        for s in (0.0, 0.25, 0.5, 1.0):
            assert _slice_cost(xs, ys, s, _QUAD) == reference_quad(xs, ys, s, x_lo)
            assert _slice_cost(kx, ys, s, _KD_V) == reference_kd(kx, ys, s, "v")
            assert _slice_cost(kx, ys, s, _KD_H) == reference_kd(kx, ys, s, "h")

    @pytest.mark.parametrize("eps", [0.05, 0.5])
    @pytest.mark.parametrize("t", [60.0, 200.0, 700.0, 2500.0])
    def test_coupled_extension_cost(self, t, eps):
        # the extended tree is counted with no root box; the reference loop
        # takes its box [-eps, 1], and the base tree's [0, 1]
        for r in range(5):
            rng = np.random.default_rng([2013, r])
            xs, ys = quadtree.sample_extension_xy(t, eps, rng)
            xs[::11] = -eps
            xs[5::11] = 1.0
            keep = xs >= 0.0
            for s in (0.0, float(rng.random()), 1.0):
                base, ext = quadtree.coupled_extension_cost(xs, ys, eps, s)
                assert ext == reference_quad(xs, ys, s, -eps)
                assert base == reference_quad(xs[keep], ys[keep], s, 0.0)


class TestCoordinateValidation:
    @pytest.mark.parametrize("fn", [quadtree.line_cost, kdtree.line_cost])
    def test_unequal_lengths_rejected(self, fn):
        with pytest.raises(ValueError):
            fn([0.2, 0.7, 0.4], [0.5], 0.5)
        with pytest.raises(ValueError):
            fn(np.full(SEQ + 5, 0.5), np.full(SEQ + 4, 0.5), 0.5)

    @pytest.mark.parametrize("fn", [quadtree.line_cost, kdtree.line_cost])
    def test_non_1d_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(np.full((2, 3), 0.5), np.full((2, 3), 0.5), 0.5)
        with pytest.raises(ValueError):
            fn(0.5, 0.5, 0.5)

    @pytest.mark.parametrize("n", [0, 2, 200])
    @pytest.mark.parametrize("root_axis", [None, "v", "h"], ids=["quad", "kd-v", "kd-h"])
    def test_bad_point_refused_at_every_size(self, root_axis, n):
        # n good points, then one bad one: alone, in the head, or in a block
        def fn(x, y):
            xs, ys = np.append(good_x, x), np.append(good_y, y)
            if root_axis is None:
                return quadtree.line_cost(xs, ys, 0.25)
            return kdtree.line_cost(xs, ys, 0.25, root_axis)

        rng = np.random.default_rng([2014, n])
        good_x, good_y = rng.random(n), rng.random(n)
        for x, y in [(0.5, -1e-9), (0.5, 1.0 + 1e-9), (0.5, np.nan), (0.5, np.inf),
                     (1.0 + 1e-9, 0.5), (np.nan, 0.5), (np.inf, 0.5), (np.nan, np.nan)]:
            with pytest.raises(ValueError, match=r"^coordinates must have y in \[0, 1\]"):
                fn(x, y)
        # x below 0 is inside the root cell (the coupling's extended box)
        assert fn(-0.5, 0.5) == fn(0.0, 0.5) >= 1
        assert fn(-np.inf, 0.0) >= 1

    def test_y_outside_unit_interval_rejected_on_the_block_path(self):
        ys = np.linspace(0.0, 1.0, SEQ + 1)
        xs = np.linspace(0.0, 1.0, SEQ + 1)
        for bad in (-1e-9, 1.0 + 1e-9, np.nan):
            ys_bad = ys.copy()
            ys_bad[-1] = bad
            with pytest.raises(ValueError):
                quadtree.line_cost(xs, ys_bad, 0.5)



@pytest.mark.parametrize("call", [
    lambda s: quadtree.line_cost([0.2], [0.3], s),
    lambda s: kdtree.line_cost([0.2], [0.3], s, "h"),
    lambda s: quadtree.cost(quadtree.build([]), s),
    lambda s: limitproc.simulate_many(2, s, 0, 1),
], ids=["line_cost", "kd_line_cost", "cost", "simulate_many"])
def test_query_message_prints_numpy_scalars_as_floats(call):
    with pytest.raises(ValueError, match=r"^query position must lie in \[0, 1\], got 1\.5$"):
        call(np.float64(1.5))


# (value, message) pairs as the array-only check printed them
REFUSED_QUERIES = [
    (1.5, "got 1.5"),
    (np.float64(1.5), "got 1.5"),
    (float("nan"), "got nan"),
    (np.float64("nan"), "got nan"),
    (-1e-300, "got -1e-300"),
    (float("inf"), "got inf"),
]
ACCEPTED_QUERIES = [0.0, -0.0, 1.0, 0.5, np.float64(0.25), np.float64(-0.0)]


@pytest.mark.parametrize("s, message", REFUSED_QUERIES, ids=repr)
def test_scalar_query_check_refuses_like_the_array_form(s, message):
    expect = rf"^query position must lie in \[0, 1\], {message}$"
    for value in (s, np.array(s), [0.5, s]):
        with pytest.raises(ValueError, match=expect):
            quadtree._check_query(value)
    with pytest.raises(ValueError, match=expect):
        quadtree.line_cost([0.2], [0.3], s)
    with pytest.raises(ValueError, match=expect):
        kdtree.line_cost([0.2], [0.3], s, "v")


@pytest.mark.parametrize("s", ACCEPTED_QUERIES, ids=repr)
def test_scalar_query_check_accepts_like_the_array_form(s):
    got = quadtree._check_query(s)
    assert got == np.asarray(s, dtype=float)
    assert np.signbit(got) == np.signbit(s)
    # the depth check's result still broadcasts and roots a batch
    assert np.broadcast_to(limitproc._check_depth_query(3, s), (4,)).tolist() == [float(s)] * 4
    assert limitproc.simulate_many(3, s, 7, 4).tolist() == limitproc.simulate_many(
        3, np.array(s), 7, 4).tolist()
    areas, _ = limitproc.crossing_boxes(3, s, 7)
    assert areas.tolist() == limitproc.crossing_boxes(3, np.array(s), 7)[0].tolist()
    xs, ys = np.random.default_rng(3).random((2, 300))
    assert quadtree.line_cost(xs, ys, s) == quadtree.line_cost(xs, ys, np.array(s))
