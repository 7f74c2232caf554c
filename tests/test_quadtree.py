import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmquad import cli, quadtree
from pmquad.errors import CapExceededError, DuplicateCoordinateError
from pmquad.geom import Cell, Point2, StepProfile
from pmquad.quadtree import (
    Tree,
    build,
    cost,
    coupled_extension_cost,
    horizontal_crossings,
    line_cost,
    profile,
    sample_extension_xy,
    sample_poisson_xy,
    sample_uniform_points,
    sample_uniform_xy,
    subtree_sizes,
    supremum,
)
from pmquad.specfun import constants


def _pts(*coords):
    return [Point2(x, y, i) for i, (x, y) in enumerate(coords)]


TWO_POINTS = _pts((0.5, 0.5), (0.25, 0.75))


def _random_tree(seed, n):
    rng = np.random.default_rng(seed)
    return build(sample_uniform_points(n, rng))


class TestGeom:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            Point2(1.5, 0.0)

    def test_degenerate_cell(self):
        with pytest.raises(ValueError):
            Cell(0.3, 0.3, 0.0, 1.0)

    def test_cell_line_crossing_conventions(self):
        c = Cell(0.2, 0.6, 0.0, 1.0)
        assert c.crosses_line(0.2)
        assert not c.crosses_line(0.6)
        assert not c.crosses_line(0.1)
        edge = Cell(0.7, 1.0, 0.0, 1.0)
        assert edge.crosses_line(1.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            StepProfile([0.1], [1])  # must start at 0
        with pytest.raises(ValueError):
            StepProfile([0.0, 0.5], [1, 1])  # not merged
        with pytest.raises(ValueError):
            StepProfile([0.0, 0.5, 0.4], [1, 2, 3])

    def test_profile_eval_and_events(self):
        p = StepProfile.from_extents([0.0, 0.25, 0.25], [0.5, 0.5])
        assert p.breakpoints == [0.0, 0.25, 0.5]
        assert p.values == [1, 3, 1]
        assert p.eval(0.0) == 1
        assert p.eval(0.25) == 3  # right-continuous
        assert p.eval(0.499) == 3
        assert p.eval(1.0) == 1
        with pytest.raises(ValueError):
            p.eval(1.5)


class TestBuild:
    def test_empty(self):
        t = build([])
        assert t.root is None and t.size == 0

    def test_single_point_quarters_the_square(self):
        t = build(_pts((0.5, 0.5)))
        assert t.size == 1
        assert t.root.cell == Cell(0.0, 1.0, 0.0, 1.0)
        quads = [t.root.child_cell(i) for i in range(4)]
        assert quads[0] == Cell(0.0, 0.5, 0.0, 0.5)  # bottom-left
        assert quads[1] == Cell(0.0, 0.5, 0.5, 1.0)  # top-left
        assert quads[2] == Cell(0.5, 1.0, 0.0, 0.5)  # bottom-right
        assert quads[3] == Cell(0.5, 1.0, 0.5, 1.0)  # top-right
        assert sum(c.area() for c in quads) == pytest.approx(1.0, abs=1e-15)

    def test_second_point_lands_top_left(self):
        t = build(TWO_POINTS)
        child = t.root.children[1]
        assert child is not None and child.point.index == 1
        assert child.cell == Cell(0.0, 0.5, 0.5, 1.0)
        assert all(t.root.children[i] is None for i in (0, 2, 3))

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(DuplicateCoordinateError):
            build(_pts((0.3, 0.4), (0.3, 0.9)))
        with pytest.raises(DuplicateCoordinateError):
            build(_pts((0.3, 0.4), (0.9, 0.4)))

    def test_points_live_in_their_cells(self):
        t = _random_tree(5, 300)
        for node in t.nodes():
            c, p = node.cell, node.point
            assert c.x0 <= p.x <= c.x1 and c.y0 <= p.y <= c.y1

    def test_cells_tile_recursively(self):
        t = _random_tree(6, 200)
        for node in t.nodes():
            total = sum(node.child_cell(i).area() for i in range(4))
            assert total == pytest.approx(node.cell.area(), abs=1e-15)
            for child in node.children:
                if child is not None:
                    pc = child.cell
                    assert node.cell.x0 <= pc.x0 and pc.x1 <= node.cell.x1


class TestCost:
    def test_empty_tree(self):
        assert cost(build([]), 0.7) == 0

    def test_single_point(self):
        t = build(_pts((0.3, 0.8)))
        for s in (0.0, 0.3, 0.9, 1.0):
            assert cost(t, s) == 1

    def test_two_point_example(self):
        t = build(TWO_POINTS)
        assert cost(t, 0.3) == 2
        assert cost(t, 0.6) == 1
        assert cost(t, 0.5) == 1  # line at the split goes right

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cost(build([]), -0.1)
        with pytest.raises(ValueError):
            cost(build([]), 1.0001)

    def test_crossings_oracle_small_trees(self):
        srng = np.random.default_rng(77)
        for seed in range(60):
            t = _random_tree(1000 + seed, int(srng.integers(1, 50)))
            for s in srng.random(10):
                assert cost(t, float(s)) == horizontal_crossings(t, float(s))

    def test_crossings_two_point(self):
        assert horizontal_crossings(build(TWO_POINTS), 0.3) == 2

    def test_single_crossing(self):
        assert horizontal_crossings(build(_pts((0.6, 0.1))), 0.99) == 1

    def test_monotone_under_insertion(self):
        rng = np.random.default_rng(8)
        pts = sample_uniform_points(60, rng)
        svals = np.random.default_rng(9).random(25)
        prev = [0] * len(svals)
        for k in range(1, 61):
            t = build(pts[:k])
            cur = [cost(t, float(s)) for s in svals]
            assert all(a <= b for a, b in zip(prev, cur))
            prev = cur

    def test_cost_at_one_counts_right_edge_cells(self):
        t = _random_tree(11, 120)
        assert cost(t, 1.0) == sum(1 for nd in t.nodes() if nd.cell.x1 == 1.0)


class TestProfile:
    def test_single_point(self):
        p = profile(build(_pts((0.4, 0.2))))
        assert p.breakpoints == [0.0] and p.values == [1]

    def test_two_point_profile_merges_away_quarter(self):
        p = profile(build(TWO_POINTS))
        assert p.breakpoints == [0.0, 0.5]
        assert p.values == [2, 1]

    def test_eval_equals_cost_everywhere(self):
        t = _random_tree(21, 30)
        p = profile(t)
        srng = np.random.default_rng(22)
        for s in srng.random(200):
            assert p.eval(float(s)) == cost(t, float(s))
        for bp in p.breakpoints:
            assert p.eval(bp) == cost(t, bp)

    def test_breakpoints_are_stored_x_coordinates(self):
        t = _random_tree(23, 40)
        xs = {0.0} | {node.point.x for node in t.nodes()}
        assert set(profile(t).breakpoints) <= xs

    def test_right_continuity_between_breakpoints(self):
        t = _random_tree(29, 50)
        p = profile(t)
        srng = np.random.default_rng(30)
        for s in srng.random(50):
            s = float(s)
            left = math.nextafter(s, 0.0)
            if p.eval(left) != p.eval(s):
                assert s in p.breakpoints  # jumps only at breakpoints


class TestSupremum:
    def test_single_point(self):
        assert supremum(build(_pts((0.9, 0.9)))) == (1, (0.0, 1.0))

    def test_two_point_example(self):
        assert supremum(build(TWO_POINTS)) == (2, (0.0, 0.5))

    def test_matches_dense_grid_oracle(self):
        srng = np.random.default_rng(31)
        for seed in range(20):
            t = _random_tree(3000 + seed, int(srng.integers(1, 100)))
            best, (lo, hi) = supremum(t)
            p = profile(t)
            dense = np.concatenate([np.linspace(0, 1, 2001), p.breakpoints])
            oracle = max(cost(t, float(s)) for s in dense)
            assert best == oracle
            assert lo <= (lo + min(hi, 1.0)) / 2 < hi
            assert cost(t, (lo + min(hi, 1.0)) / 2) == best


class TestSubtreeSizes:
    def test_single(self):
        assert subtree_sizes(build(_pts((0.5, 0.5)))) == (0, 0, 0, 0)

    def test_two_point(self):
        assert subtree_sizes(build(TWO_POINTS)) == (0, 1, 0, 0)

    def test_empty_tree_error(self):
        with pytest.raises(ValueError):
            subtree_sizes(build([]))

    def test_sizes_sum_to_n_minus_one(self):
        t = _random_tree(37, 200)
        assert sum(subtree_sizes(t)) == 199

    def test_bottom_left_mean_matches_multinomial(self):
        reps = 20000
        total = 0
        for r in range(reps):
            rng = np.random.default_rng([41, r])
            total += subtree_sizes(build(sample_uniform_points(10, rng)))[0]
        mean = total / reps
        # I1 ~ mean (n-1) E[UV] = 9/4, sd per draw <= ~2.2
        se = 2.2 / math.sqrt(reps)
        assert abs(mean - 2.25) < 3 * se + 0.01


class TestSampling:
    def test_empty(self):
        assert sample_uniform_points(0, np.random.default_rng(0)) == []

    def test_deterministic_given_seed(self):
        a = sample_uniform_points(20, np.random.default_rng([5, 3]))
        b = sample_uniform_points(20, np.random.default_rng([5, 3]))
        assert a == b

    def test_uniform_mean(self):
        xs, _ = sample_uniform_xy(100_000, np.random.default_rng(12))
        se = (1.0 / math.sqrt(12.0)) / math.sqrt(100_000)
        assert abs(float(xs.mean()) - 0.5) < 3 * se

    def test_poisson_zero_budget(self):
        xs, ys = sample_poisson_xy(0.0, np.random.default_rng(1))
        assert xs.size == ys.size == 0

    def test_poisson_count_mean(self):
        rng = np.random.default_rng(2024)
        counts = rng.poisson(20.0, size=100_000)
        assert abs(counts.mean() - 20.0) < 3 * math.sqrt(20.0 / 100_000)

    def test_poissonized_mean_cost(self):
        c = constants()
        t = 2000.0
        reps = 600
        vals = []
        for r in range(reps):
            rng = np.random.default_rng([71, r])
            xs, ys = sample_poisson_xy(t, rng)
            vals.append(line_cost(xs, ys, float(rng.random())))
        target = c.kappa * t**c.beta - 1.0
        assert abs(np.mean(vals) - target) < 0.05 * target


class _SizeOnlyRng:
    """Gives a fixed size for every Poisson draw and records coordinate draws."""

    def __init__(self, size):
        self.size, self.drawn = size, []

    def poisson(self, lam):
        return self.size

    def random(self, n):
        self.drawn.append(n)
        return np.full(n, 0.5)


class TestPointCap:
    SAMPLERS = {
        "uniform": lambda rng: sample_uniform_xy(rng.size, rng),
        "poisson": lambda rng: sample_poisson_xy(1e12, rng),
        "extension": lambda rng: sample_extension_xy(1e12, 0.1, rng),
    }

    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_refused_after_the_size_and_before_allocating(self, monkeypatch, sampler):
        monkeypatch.setattr(quadtree, "_MAX_POINTS", 10)
        rng = _SizeOnlyRng(11)
        with pytest.raises(CapExceededError, match="11 points exceed the cap of 10"):
            self.SAMPLERS[sampler](rng)
        assert rng.drawn == []
        rng = _SizeOnlyRng(10)
        xs, ys = self.SAMPLERS[sampler](rng)
        assert xs.size == ys.size == 10 and rng.drawn == [10, 10]

    def test_cap_is_two_to_the_24(self):
        assert quadtree._MAX_POINTS == 2**24
        with pytest.raises(CapExceededError):
            sample_uniform_xy(2**24 + 1, _SizeOnlyRng(0))


class TestLineCost:
    def test_matches_structural_cost(self):
        srng = np.random.default_rng(55)
        for seed in range(40):
            n = int(srng.integers(0, 120))
            rng = np.random.default_rng([66, seed])
            pts = sample_uniform_points(n, rng)
            t = build(pts)
            xs = np.array([p.x for p in pts])
            ys = np.array([p.y for p in pts])
            for s in srng.random(8):
                assert line_cost(xs, ys, float(s)) == cost(t, float(s))

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=80))
    @settings(max_examples=40, deadline=None)
    def test_matches_structural_cost_property(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = sample_uniform_points(n, rng)
        t = build(pts)
        xs = np.array([p.x for p in pts])
        ys = np.array([p.y for p in pts])
        s = float(np.random.default_rng(seed + 1).random())
        assert line_cost(xs, ys, s) == cost(t, s) == horizontal_crossings(t, s)


class TestCoupling:
    def test_zero_extension_is_identity(self):
        for r in range(50):
            rng = np.random.default_rng([81, r])
            xs, ys = sample_extension_xy(50.0, 0.0, rng)
            base, ext = coupled_extension_cost(xs, ys, 0.0, 0.35)
            assert base == ext

    def test_pathwise_inequality(self):
        for r in range(2000):
            rng = np.random.default_rng([82, r])
            xs, ys = sample_extension_xy(100.0, 0.1, rng)
            base, ext = coupled_extension_cost(xs, ys, 0.1, 0.3)
            assert base <= ext

    def test_extension_matches_rescaled_poisson_in_mean(self):
        t, eps, s = 100.0, 0.15, 0.3
        reps = 3000
        ext_vals = np.empty(reps)
        resc_vals = np.empty(reps)
        for r in range(reps):
            rng = np.random.default_rng([83, r])
            xs, ys = sample_extension_xy(t, eps, rng)
            _, ext_vals[r] = coupled_extension_cost(xs, ys, eps, s)
            rng2 = np.random.default_rng([84, r])
            xs2, ys2 = sample_poisson_xy(t * (1 + eps), rng2)
            resc_vals[r] = line_cost(xs2, ys2, (s + eps) / (1 + eps))
        gap = abs(ext_vals.mean() - resc_vals.mean())
        se = math.hypot(ext_vals.std(ddof=1), resc_vals.std(ddof=1)) / math.sqrt(reps)
        assert gap < 3 * se

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            coupled_extension_cost(np.array([0.5]), np.array([0.5]), -0.1, 0.5)

    @pytest.mark.parametrize("t, eps, code, err", [
        ("10", "1e308", 2, "invalid arguments: intensity budget t (1 + eps) must be finite, got inf"),
        ("1e19", "1", 3, "cap exceeded: intensity budget t (1 + eps) = 2e+19 exceeds 2**62; "
                         "trees are capped at 16777216 points"),
    ])
    def test_budget_messages_name_the_product(self, capsys, t, eps, code, err):
        # t and eps pass their own checks; the budget drawn from is t (1 + eps)
        assert cli.main(["experiment", "--kind", "coupling", "--t", t, "--eps", eps]) == code
        assert capsys.readouterr() == ("", err + "\n")
