import math

import numpy as np
import pytest

from pmquad.errors import AxisMismatchError, DuplicateCoordinateError
from pmquad.geom import Cell, Point2
from pmquad.kdtree import (
    HORIZONTAL,
    VERTICAL,
    build_kd,
    cost_parallel,
    cost_perp,
    decomposition_check,
    line_cost,
    vertical_decomposition_check,
)
from pmquad.quadtree import horizontal_crossings, profile, supremum
from pmquad.quadtree import line_cost as quad_line_cost
from pmquad.quadtree import sample_uniform_points, sample_uniform_xy


def _pts(*coords):
    return [Point2(x, y, i) for i, (x, y) in enumerate(coords)]


TWO_POINTS = _pts((0.5, 0.5), (0.25, 0.75))


def _random_kd(seed, n, axis=VERTICAL):
    rng = np.random.default_rng(seed)
    return build_kd(sample_uniform_points(n, rng), axis)


class TestBuildKd:
    def test_empty(self):
        t = build_kd([])
        assert t.root is None and t.size == 0

    def test_single_vertical_root_halves_the_square(self):
        t = build_kd(_pts((0.5, 0.5)))
        assert t.root.split_x and not t.root.split_y
        assert t.root.child_cell(0) == Cell(0.0, 0.5, 0.0, 1.0)
        assert t.root.child_cell(2) == Cell(0.5, 1.0, 0.0, 1.0)

    def test_axis_alternates(self):
        t = build_kd(TWO_POINTS)
        low = t.root.children[0]
        assert low is not None and low.point.index == 1
        assert low.split_y and not low.split_x
        assert low.cell == Cell(0.0, 0.5, 0.0, 1.0)
        assert low.point.y == 0.75

    def test_horizontal_root(self):
        t = build_kd(TWO_POINTS, HORIZONTAL)
        assert t.root.split_y and not t.root.split_x
        child = t.root.children[1]  # (0.25, 0.75) is above y = 0.5
        assert child is not None and child.split_x and not child.split_y
        assert child.cell == Cell(0.0, 1.0, 0.5, 1.0)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateCoordinateError):
            build_kd(_pts((0.2, 0.3), (0.2, 0.6)))

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            build_kd([], "x")

    def test_cells_tile(self):
        t = _random_kd(3, 150)
        for node in t.nodes():
            lo = node.child_cell(0)
            hi = node.child_cell(2 if node.split_x else 1)
            assert lo.area() + hi.area() == pytest.approx(node.cell.area(), abs=1e-15)


class TestCosts:
    def test_single_point_parallel(self):
        assert cost_parallel(build_kd(_pts((0.7, 0.1))), 0.2) == 1

    def test_two_point_parallel_example(self):
        t = build_kd(TWO_POINTS)
        assert cost_parallel(t, 0.3) == 2
        assert cost_parallel(t, 0.6) == 1

    def test_single_point_perp_counts_everywhere(self):
        t = build_kd(_pts((0.7, 0.1)), HORIZONTAL)
        for s in (0.0, 0.5, 1.0):
            assert cost_perp(t, s) == 1

    def test_two_point_perp_is_constant_two(self):
        t = build_kd(TWO_POINTS, HORIZONTAL)
        for s in np.linspace(0.0, 1.0, 11):
            assert cost_perp(t, float(s)) == 2

    def test_axis_mismatch(self):
        with pytest.raises(AxisMismatchError):
            cost_perp(build_kd(TWO_POINTS), 0.5)
        with pytest.raises(AxisMismatchError):
            cost_parallel(build_kd(TWO_POINTS, HORIZONTAL), 0.5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cost_parallel(build_kd([]), 1.5)

    def test_monotone_under_insertion(self):
        pts = sample_uniform_points(50, np.random.default_rng(5))
        svals = np.random.default_rng(6).random(15)
        prev = [0] * len(svals)
        for k in range(1, 51):
            t = build_kd(pts[:k])
            cur = [cost_parallel(t, float(s)) for s in svals]
            assert all(a <= b for a, b in zip(prev, cur))
            prev = cur

    def test_costs_match_cell_crossings(self):
        # the search against the whole-tree count of cells meeting the line,
        # at the square's edges, at stored x's and at random positions (the
        # latter two as numpy floats)
        srng = np.random.default_rng(15)
        for seed in range(150):
            n = int(srng.integers(1, 81))
            for axis, fn in ((VERTICAL, cost_parallel), (HORIZONTAL, cost_perp)):
                t = _random_kd(11000 + seed, n, axis)
                xs = [node.point.x for node in t.nodes()]
                queries = [0.0, 1.0, *srng.choice(xs, 3), *srng.random(5)]
                for s in queries:
                    assert fn(t, s) == horizontal_crossings(t, s)


class TestProfile:
    def test_single_vertical_is_constant_one(self):
        p = profile(build_kd(_pts((0.4, 0.6))))
        assert p.breakpoints == [0.0] and p.values == [1]

    def test_two_point_horizontal_is_constant_two(self):
        p = profile(build_kd(TWO_POINTS, HORIZONTAL))
        assert p.breakpoints == [0.0] and p.values == [2]

    def test_eval_matches_cost_both_flavors(self):
        srng = np.random.default_rng(7)
        for seed in range(30):
            n = int(srng.integers(1, 50))
            for axis, fn in ((VERTICAL, cost_parallel), (HORIZONTAL, cost_perp)):
                t = _random_kd(500 + seed, n, axis)
                p = profile(t)
                for s in srng.random(10):
                    assert p.eval(float(s)) == fn(t, float(s))

    def test_supremum_matches_grid_oracle(self):
        t = _random_kd(9, 80)
        best, _ = supremum(t)
        dense = np.linspace(0, 1, 2001)
        assert best == max(cost_parallel(t, float(s)) for s in dense)


class TestDecomposition:
    def test_single_point(self):
        assert decomposition_check(build_kd(_pts((0.5, 0.5)), HORIZONTAL), 0.3)

    def test_two_point(self):
        assert decomposition_check(build_kd(TWO_POINTS, HORIZONTAL), 0.3)

    def test_empty_tree_error(self):
        with pytest.raises(ValueError):
            decomposition_check(build_kd([], HORIZONTAL), 0.5)

    def test_random_instances(self):
        srng = np.random.default_rng(11)
        for seed in range(300):
            n = int(srng.integers(1, 100))
            t = _random_kd(7000 + seed, n, HORIZONTAL)
            assert decomposition_check(t, float(srng.random()))

    def test_vertical_counterpart(self):
        srng = np.random.default_rng(12)
        for seed in range(300):
            n = int(srng.integers(1, 100))
            t = _random_kd(9000 + seed, n, VERTICAL)
            assert vertical_decomposition_check(t, float(srng.random()))


class TestLineCost:
    def test_matches_structural(self):
        srng = np.random.default_rng(13)
        for seed in range(40):
            n = int(srng.integers(0, 100))
            rng = np.random.default_rng([14, seed])
            pts = sample_uniform_points(n, rng)
            xs = np.array([p.x for p in pts])
            ys = np.array([p.y for p in pts])
            for axis, fn in ((VERTICAL, cost_parallel), (HORIZONTAL, cost_perp)):
                t = build_kd(pts, axis)
                for s in srng.random(5):
                    assert line_cost(xs, ys, float(s), axis) == fn(t, float(s))


class TestMeanSandwich:
    def test_parallel_mean_between_quadtree_bounds(self):
        # both flavors at n=500, s=0.3; the parallel 2-d tree mean must sit
        # between one fifth and twice the quadtree mean, up to noise
        n, s, reps = 500, 0.3, 10_000
        quad = np.empty(reps)
        par = np.empty(reps)
        for r in range(reps):
            rng = np.random.default_rng([21, r])
            xs, ys = sample_uniform_xy(n, rng)
            quad[r] = quad_line_cost(xs, ys, s)
            rng2 = np.random.default_rng([22, r])
            xs2, ys2 = sample_uniform_xy(n, rng2)
            par[r] = line_cost(xs2, ys2, s, VERTICAL)
        se = 3.0 * (quad.std(ddof=1) + par.std(ddof=1)) / math.sqrt(reps)
        assert quad.mean() / 5.0 - se <= par.mean() <= 2.0 * quad.mean() + se
