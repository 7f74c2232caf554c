import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmquad import cli, limitproc, quadtree
from pmquad.errors import CapExceededError, DuplicateCoordinateError
from pmquad.geom import Point2, _points
from pmquad.limitproc import (
    crossing_boxes,
    diagnostics,
    diagnostics_many,
    env_seed,
    fill_up_level,
    fill_up_level_xy,
    g_apply,
    labels_at,
    simulate_many,
    simulate_path,
)
from pmquad.moments import make_grid, psi_moments, second_moment_iterates
from pmquad.quadtree import build, sample_uniform_points, sample_uniform_xy
from pmquad.specfun import beta_exponent, h

B = beta_exponent()
ENV = 987654321


def _point(n, s, env, two_d=False):
    """Z_n(s) in one environment: the path on a one-point grid."""
    return simulate_path(n, [s], env, two_d)[0]


def _oracle_var(depth, s):
    m = second_moment_iterates(depth, make_grid(512, extra=(s,)))
    return float(m.eval(s)) - h(s) ** 2


class TestGApply:
    def test_symmetric_labels_midquery(self):
        expected = 2.0 ** (1.0 - 3.0 * B)
        assert g_apply(0.5, 0.5, h, h, h, h, 0.25) == pytest.approx(expected, rel=1e-13)

    def test_left_branch_ignores_right_functions(self):
        def poison(_):
            raise AssertionError("right-side function evaluated for s < x")

        v = g_apply(0.7, 0.3, h, h, poison, poison, 0.2)
        assert v == g_apply(0.7, 0.3, h, h, h, h, 0.2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g_apply(0.0, 0.5, h, h, h, h, 0.5)
        with pytest.raises(ValueError):
            g_apply(0.5, 0.5, h, h, h, h, 1.2)

    def test_mean_preserves_h_by_quadrature(self):
        from scipy.integrate import dblquad

        for s in (0.3, 0.5):
            val, err = dblquad(
                lambda y, x: g_apply(x, y, h, h, h, h, s),
                1e-12,
                1.0 - 1e-12,
                1e-12,
                1.0 - 1e-12,
                epsabs=1e-9,
            )
            assert err < 1e-7
            assert val == pytest.approx(h(s), abs=1e-7)

    def test_mean_preserves_h_by_monte_carlo(self):
        vals = simulate_many(1, 0.3, 424242, 200_000)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - h(0.3)) < 3 * se


class TestEnvironment:
    def test_labels_deterministic_per_address(self):
        a = labels_at(ENV, (1, 3, 2))
        b = labels_at(987654321, (1, 3, 2))
        assert a == b

    def test_labels_differ_across_addresses_and_seeds(self):
        assert labels_at(ENV, (1,)) != labels_at(ENV, (2,))
        assert labels_at(ENV, ()) != labels_at(1, ())

    def test_labels_in_open_interval(self):
        for addr in ((), (1,), (4, 4, 4, 4)):
            for v in labels_at(ENV, addr):
                assert 0.0 < v < 1.0

    def test_bad_address_digit(self):
        with pytest.raises(ValueError):
            labels_at(ENV, (0,))

    def test_label_family_is_uniform(self):
        us = np.array(
            [labels_at(env_seed(5, r), ())[0] for r in range(4000)]
        )
        assert abs(us.mean() - 0.5) < 3 * (1 / math.sqrt(12)) / math.sqrt(4000)
        assert abs(us.var() - 1.0 / 12.0) < 0.005

    @pytest.mark.parametrize("seed", [0, 987654321, 2**64 - 1])
    def test_seeds_wrap_mod_2_64(self, seed):
        grid = [0.0, 0.3, 0.71, 1.0]
        want = (labels_at(seed, (2, 4, 1)), simulate_path(6, grid, seed),
                crossing_boxes(5, 0.3, seed), diagnostics(4, seed))
        for alias in (seed + 2**64, seed - 2**64):
            assert labels_at(alias, (2, 4, 1)) == want[0]
            assert np.array_equal(simulate_path(6, grid, alias), want[1])
            areas, rel = crossing_boxes(5, 0.3, alias)
            assert np.array_equal(areas, want[2][0]) and np.array_equal(rel, want[2][1])
            assert diagnostics(4, alias) == want[3]


class TestSimulatePointwise:
    def test_depth_zero_is_h(self):
        for s in (0.0, 0.3, 0.5, 1.0):
            assert _point(0, s, ENV) == h(s)

    def test_depth_one_matches_operator_applied_to_h(self):
        u0, v0, _ = labels_at(ENV, ())
        for s in (0.2, 0.5, 0.9):
            assert _point(1, s, ENV) == pytest.approx(
                g_apply(u0, v0, h, h, h, h, s), rel=1e-12
            )

    def test_vanishes_at_boundary(self):
        assert _point(8, 0.0, ENV) == 0.0
        assert _point(8, 1.0, ENV) == 0.0

    def test_depth_cap(self):
        with pytest.raises(CapExceededError):
            _point(25, 0.5, ENV)

    def test_path_equals_pointwise_bit_for_bit(self):
        grid = np.linspace(0.0, 1.0, 17)
        path = simulate_path(7, grid, ENV)
        for s, v in zip(grid, path):
            assert v == _point(7, float(s), ENV)

    def test_path_grid_cap(self):
        with pytest.raises(CapExceededError):
            simulate_path(2, np.linspace(0, 1, 10_001), ENV)

    def test_batch_equals_single_environments(self):
        vals = simulate_many(9, 0.4, 31337, 600)
        for r in (0, 1, 255, 256, 599):
            env = env_seed(31337, r)
            assert vals[r] == _point(9, 0.4, env)

    def test_batch_start_offset(self):
        full = simulate_many(6, 0.3, 9, 500)
        tail = simulate_many(6, 0.3, 9, 100, start=400)
        assert np.array_equal(full[400:], tail)

    @pytest.mark.parametrize("start", [-2, 2**64 - 1])
    def test_start_wraps_like_env_seed(self, start):
        # indices are taken mod 2^64, so a block may begin below 0 or cross 2^64
        vals = simulate_many(5, 0.3, 9, 3, start=start)
        wn, ln = diagnostics_many(4, 9, 3, start=start)
        for r in range(3):
            env = env_seed(9, start + r)
            assert vals[r] == _point(5, 0.3, env)
            assert (wn[r], ln[r]) == diagnostics(4, env)


class TestCrossingBoxes:
    def test_exactly_two_to_the_n_boxes(self):
        for n in (0, 1, 4, 9):
            areas, rel = crossing_boxes(n, 0.37, ENV)
            assert areas.size == 2**n and rel.size == 2**n

    def test_boxes_reproduce_simulated_value(self):
        areas, rel = crossing_boxes(10, 0.37, ENV)
        val = float(np.sum(areas**B * (rel * (1.0 - rel)) ** (B / 2.0)))
        assert val == pytest.approx(_point(10, 0.37, ENV), rel=1e-12)

    def test_disjoint_boxes_occupy_at_most_unit_area(self):
        areas, _ = crossing_boxes(11, 0.61, ENV)
        assert np.all(areas > 0.0)
        assert float(areas.sum()) <= 1.0 + 1e-12


class TestMartingaleProperty:
    def test_mean_is_h_at_every_depth(self):
        reps = 30_000
        for depth, seed in ((1, 11), (4, 12), (8, 13)):
            vals = simulate_many(depth, 0.3, seed, reps)
            se = vals.std(ddof=1) / math.sqrt(reps)
            assert abs(vals.mean() - h(0.3)) < 3 * se, f"depth {depth}"

    def test_level_increment_centered(self):
        # E[Z_{n+1}(s) - Z_n(s)] = 0 under a shared environment
        reps = 30_000
        lo = simulate_many(5, 0.5, 77, reps)
        hi = simulate_many(6, 0.5, 77, reps)
        diff = hi - lo
        se = diff.std(ddof=1) / math.sqrt(reps)
        assert abs(diff.mean()) < 3 * se

    def test_variance_matches_operator_iterate(self):
        reps = 30_000
        vals = simulate_many(3, 0.25, 313, reps)
        var = vals.var(ddof=1)
        d = vals - vals.mean()
        se_var = math.sqrt((np.mean(d**4) - np.mean(d**2) ** 2) / reps)
        assert abs(var - _oracle_var(3, 0.25)) < 3 * se_var

    def test_normalized_moments_approach_limit_values(self):
        # one master seed couples the environments across depths, so the
        # depth-to-depth moment increase is tested on correlated samples
        c2 = psi_moments(2).c(2)
        c3 = psi_moments(3).c(3)
        reps = 20_000
        m2, m3 = [], []
        for depth in (4, 8, 12):
            norm = simulate_many(depth, 0.5, 515, reps) / h(0.5)
            sq = norm**2
            m2.append((float(sq.mean()), float(sq.std(ddof=1)) / math.sqrt(reps)))
            m3.append(float(np.mean(norm**3)))
        assert m2[0][0] < m2[1][0] < m2[2][0]
        assert m3[0] < m3[1] < m3[2]
        for depth, (m, se) in zip((4, 8, 12), m2):
            oracle = (_oracle_var(depth, 0.5) + h(0.5) ** 2) / h(0.5) ** 2
            assert abs(m - oracle) < 3 * se, f"depth {depth}"
        assert abs(m2[2][0] - c2) < max(3 * m2[2][1], 0.01 * c2)
        assert abs(m3[2] - c3) < 0.05 * c3

    def test_successive_sup_distance_decays_geometrically(self):
        # the paths are almost surely Cauchy in sup norm: the level-to-level
        # sup difference shrinks geometrically, which is what summability needs
        grid = np.linspace(0.0, 1.0, 81)
        q90 = []
        for n in (2, 5, 8):
            ds = []
            for r in range(150):
                env = env_seed(606, r)
                ds.append(
                    np.max(
                        np.abs(
                            simulate_path(n + 1, grid, env)
                            - simulate_path(n, grid, env)
                        )
                    )
                )
            q90.append(float(np.quantile(ds, 0.9)))
        assert q90[1] < 0.73 * q90[0]  # three levels at ratio < 0.9 each
        assert q90[2] < 0.73 * q90[1]


class TestTwoDVariant:
    def test_depth_zero_is_h(self):
        assert _point(0, 0.4, ENV, two_d=True) == h(0.4)

    def test_mean_is_h(self):
        vals = simulate_many(8, 0.4, 909, 30_000, two_d=True)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - h(0.4)) < 3 * se

    def test_differs_pathwise_from_quad_variant(self):
        assert _point(3, 0.6, ENV, two_d=True) != _point(3, 0.6, ENV)

    def test_marginal_moments_match_quad_variant(self):
        reps = 30_000
        a = simulate_many(10, 0.4, 111, reps, two_d=False)
        b = simulate_many(10, 0.4, 222, reps, two_d=True)
        for p in (1, 2):
            ma, mb = np.mean(a**p), np.mean(b**p)
            se = math.hypot(np.std(a**p, ddof=1), np.std(b**p, ddof=1)) / math.sqrt(reps)
            assert abs(ma - mb) < 3 * se, f"moment {p}"


class TestDiagnostics:
    def test_unit_square(self):
        assert diagnostics(0, ENV) == (1.0, 1.0)

    def test_depth_one_from_root_label(self):
        u0 = labels_at(ENV, ())[0]
        wn, ln = diagnostics(1, ENV)
        assert wn == pytest.approx(max(u0, 1.0 - u0), rel=1e-15)
        assert ln == pytest.approx(min(u0, 1.0 - u0), rel=1e-15)

    def test_depth_cap(self):
        with pytest.raises(CapExceededError):
            diagnostics(13, ENV)

    def test_widths_shrink_with_depth(self):
        w2 = diagnostics(2, ENV)[0]
        w6 = diagnostics(6, ENV)[0]
        assert w6 < w2 <= 1.0

    def test_max_width_tail_decays(self):
        # P(W_n >= c^n) falls with n once c is close enough to 1; thresholds
        # below ~0.9 are useless because the max width concentrates near 0.9^n
        reps = 400
        rates = []
        for n in (2, 4, 6):
            wn, _ = diagnostics_many(n, 2024, reps)
            rates.append(float(np.mean(wn >= 0.95**n)))
        assert rates[2] < rates[0]
        assert rates[2] < 0.5


def _fill(pts):
    """fill_up_level of the tree on pts, checked against the array kernel."""
    level = fill_up_level(build(pts))
    assert fill_up_level_xy([p.x for p in pts], [p.y for p in pts]) == level
    return level


class TestFillUp:
    def test_empty_and_single(self):
        assert _fill([]) == 0
        assert _fill([Point2(0.5, 0.5, 0)]) == 1

    def test_one_point_per_quadrant(self):
        pts = [
            Point2(0.5, 0.5, 0),
            Point2(0.2, 0.7, 1),
            Point2(0.7, 0.2, 2),
            Point2(0.3, 0.3, 3),
            Point2(0.8, 0.8, 4),
        ]
        assert _fill(pts) == 2

    def test_empty_root_quadrant_stops_at_one(self):
        pts = [
            Point2(0.5, 0.5, 0),
            Point2(0.2, 0.7, 1),
            Point2(0.7, 0.2, 2),
            Point2(0.8, 0.8, 3),  # bottom-left quadrant stays empty
        ]
        assert _fill(pts) == 1

    def test_grows_with_tree_size(self):
        def median_fill(n, reps=60):
            vals = []
            for r in range(reps):
                rng = np.random.default_rng([515, n, r])
                vals.append(fill_up_level(build(sample_uniform_points(n, rng))))
            return float(np.median(vals))

        assert median_fill(625) >= 2.0
        assert median_fill(625) > median_fill(5)

    def test_array_kernel_matches_object_tree(self):
        levels = []
        for r in range(200):
            n = (0, 1, 5, 21, 85, 500)[r % 6]
            xs, ys = sample_uniform_xy(n, np.random.default_rng([516, r]))
            level = fill_up_level_xy(xs, ys)
            tree = build(sample_uniform_points(n, np.random.default_rng([516, r])))
            assert level == fill_up_level(tree)
            levels.append(level)
        assert max(levels) >= 3


# 1, 5, 21 and 85 points are the fewest that fill levels 1 to 4.  A level
# holds more than 255 nodes of a batch only when more than 16 trees fill
# depth 2, so sizes are drawn in runs of repeats.
FILL_SIZES = (0, 1, 2, 3, 5, 21, 85, 500, 2000)


def _trees(sizes, seed):
    return [sample_uniform_xy(n, np.random.default_rng([seed, j])) for j, n in enumerate(sizes)]


def _oracle_levels(trees):
    return [fill_up_level(build(_points(xs, ys))) for xs, ys in trees]


@pytest.fixture
def batch_calls(monkeypatch):
    """The tree sizes of every ``_fill_up_batch`` call, in call order."""
    calls = []
    batch = limitproc._fill_up_batch

    def spy(xs, ys):
        calls.append([a.size for a in xs])
        return batch(xs, ys)

    monkeypatch.setattr(limitproc, "_fill_up_batch", spy)
    return calls


class TestBatchedFillUp:
    @settings(max_examples=30, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from(FILL_SIZES), st.integers(1, 24)),
                         min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_each_tree_matches_the_object_tree(self, runs, seed):
        trees = _trees([n for n, repeat in runs for _ in range(repeat)], seed)
        levels = limitproc._fill_up_levels(trees)
        assert levels.tolist() == _oracle_levels(trees)
        assert [fill_up_level_xy(*t) for t in trees] == levels.tolist()

    def test_a_level_of_more_than_255_nodes(self, monkeypatch):
        runs = limitproc._runs
        widest = []

        def spy(cell):
            at, run = runs(cell)
            widest.append(at.size)
            return at, run

        monkeypatch.setattr(limitproc, "_runs", spy)
        trees = _trees((85,) * 40 + (2000,) * 4, 517)
        assert limitproc._fill_up_levels(trees).tolist() == _oracle_levels(trees)
        assert max(widest) > 255

    def test_batches_straddle_a_small_budget(self, monkeypatch, batch_calls):
        monkeypatch.setattr(quadtree, "_BATCH_POINTS", 700)
        sizes = (85, 500, 0, 21, 2000, 5, 3, 500, 500, 1, 85, 0, 0, 2000)
        trees = _trees(sizes, 518)
        assert limitproc._fill_up_levels(trees).tolist() == _oracle_levels(trees)
        assert batch_calls == [[85, 500, 0, 21], [2000], [5, 3, 500], [500, 1, 85, 0, 0],
                               [2000]]

    def test_no_batch_exceeds_the_point_budget(self, batch_calls):
        # the diagnostics job of the replicate-many benchmark, and trees above
        # the budget among small ones
        budget = quadtree._BATCH_POINTS
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["diagnostics", "--depth", "1", "--replications", "200",
                             "--fill-n", "500", "--threads", "1"]) == 0
        assert sum(map(sum, batch_calls)) == 200 * 500
        limitproc._fill_up_levels(_trees((0, 500, budget + 1, 3, 2 * budget, 0, 85), 519))
        assert [budget + 1] in batch_calls and [2 * budget] in batch_calls
        assert all(sum(c) <= budget or len(c) == 1 for c in batch_calls)
        assert max(sum(c) for c in batch_calls if len(c) > 1) > budget - 500

    def test_no_trees(self):
        assert limitproc._fill_up_levels([]).tolist() == []

    @pytest.mark.parametrize("xs, ys, error, message", [
        ([0.5, 1.5], [0.2, 0.3], ValueError, "point (1.5, 0.3) outside the unit square"),
        ([0.5, -0.1], [0.2, 0.3], ValueError, "point (-0.1, 0.3) outside the unit square"),
        ([0.5, 0.2], [0.2, 1.01], ValueError, "point (0.2, 1.01) outside the unit square"),
        ([0.5, math.nan], [0.1, 0.2], ValueError, "point (nan, 0.2) outside the unit square"),
        ([0.5, 0.5], [0.2, 0.3], DuplicateCoordinateError,
         "point 1 repeats a coordinate; inputs must be in general position"),
        ([0.5, 0.2], [0.3, 0.3], DuplicateCoordinateError,
         "point 1 repeats a coordinate; inputs must be in general position"),
        ([0.5], [0.2, 0.3], ValueError, "coordinates must be 1-d of equal length"),
    ])
    def test_refuses_what_build_refuses(self, xs, ys, error, message):
        with pytest.raises(error, match=re.escape(message)):
            fill_up_level_xy(xs, ys)
