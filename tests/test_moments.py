import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmquad.errors import CapExceededError, GridTooCoarseError
from pmquad.moments import (
    GridFunction,
    MomentTable,
    apply_K,
    make_grid,
    psi_moments,
    second_moment_iterates,
    xi_perp_moments,
)
from pmquad.specfun import beta_exponent, beta_fn, constants, h

from peak_rss import measure

B = beta_exponent()
CONTRACTION = 4.0 / (2.0 * B + 1.0) ** 2


def _h2(grid):
    return (grid * (1.0 - grid)) ** B


def _mpmath_psi_moments(max_order, dps=40):
    """Independent extended-precision evaluation of the same recursion."""
    import mpmath

    with mpmath.workdps(dps):
        b = (mpmath.sqrt(17) - 3) / 2
        c = [mpmath.mpf(1)]
        for m in range(2, max_order + 1):
            pref = (b * m + 1) / ((m - 1) * (m + 1 - mpmath.mpf(3) / 2 * b * m))
            total = mpmath.mpf(0)
            for l in range(1, m):
                total += (
                    mpmath.binomial(m, l)
                    * mpmath.beta(b * l + 1, b * (m - l) + 1)
                    * c[l - 1]
                    * c[m - l - 1]
                )
            c.append(pref * total)
        return [float(x) for x in c]


class TestPsiMoments:
    def test_first_moment_is_one(self):
        assert psi_moments(1).c(1) == 1.0

    def test_second_moment_closed_form(self):
        closed = 2.0 * beta_fn(B + 1.0, B + 1.0) * (2.0 * B + 1.0) / (3.0 * (1.0 - B))
        assert psi_moments(2).c(2) == pytest.approx(closed, rel=1e-10)

    def test_third_moment_extended_precision(self):
        ref = _mpmath_psi_moments(3)
        assert psi_moments(3).c(3) == pytest.approx(ref[2], rel=1e-12)

    def test_table_matches_extended_precision_through_log_space(self):
        ref = _mpmath_psi_moments(40)
        table = psi_moments(40)
        for m in range(1, 41):
            assert table.c(m) == pytest.approx(ref[m - 1], rel=1e-9), f"m={m}"

    def test_order_validation(self):
        with pytest.raises(ValueError):
            psi_moments(0)
        with pytest.raises(CapExceededError):
            psi_moments(61)

    def test_jensen_root_monotone(self):
        table = psi_moments(40)
        roots = [table.c(m) ** (1.0 / m) for m in range(1, 41)]
        assert all(a <= b + 1e-12 for a, b in zip(roots, roots[1:]))

    def test_growth_stays_subfactorial(self):
        table = psi_moments(40)
        assert max(table.c(m) ** (1.0 / m) / m for m in range(1, 41)) <= 1.0
        assert max(table.c(m) ** (1.0 / m) / m for m in range(2, 41)) < 0.6

    def test_all_positive_and_increasing_from_two(self):
        table = psi_moments(20)
        vals = table.values
        assert all(v > 0 for v in vals)
        assert all(a <= b for a, b in zip(vals[1:], vals[2:]))

    def test_cross_module_variance_identities(self):
        c = constants()
        assert psi_moments(2).c(2) - 1.0 == pytest.approx(c.K2, rel=1e-10)
        integrated = psi_moments(2).c(2) * beta_fn(B + 1.0, B + 1.0) - c.mean_z_xi**2
        assert integrated == pytest.approx(c.K3, rel=1e-10)


class TestXiPerpMoments:
    def test_mean_preserved(self):
        assert xi_perp_moments(1).c(1) == pytest.approx(1.0, abs=1e-14)

    def test_second_moment_matches_variance_constant(self):
        c = constants()
        assert xi_perp_moments(2).c(2) == pytest.approx(1.0 + c.K2_perp, abs=1e-9)

    def test_moments_exceed_psi_moments_eventually(self):
        # heavier mixture: the perpendicular marginal has larger variance
        psi, xi = psi_moments(6), xi_perp_moments(6)
        assert xi.c(2) < psi.c(2)  # K2_perp < K2
        assert all(xi.c(m) > 0 for m in range(1, 7))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            xi_perp_moments(0)


class TestMomentTable:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MomentTable(values=(1.0, 2.0), max_order=3)

    def test_index_bounds(self):
        t = psi_moments(3)
        with pytest.raises(ValueError):
            t.c(0)
        with pytest.raises(ValueError):
            t.c(4)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 0.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.1, 0.5, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, np.nan, 1.0]))

    def test_eval_interpolates(self):
        f = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert f.eval(0.25) == pytest.approx(0.5)

    def test_make_grid_shapes(self):
        g = make_grid(512)
        assert g[0] == 0.0 and g[-1] == 1.0 and g.size == 514
        gg = make_grid(512, graded=True)
        assert gg[0] == 0.0 and gg[-1] == 1.0
        assert np.all(np.diff(gg) > 0)
        assert gg[1] < g[1]  # graded grid hugs the endpoint
        ge = make_grid(64, extra=(0.4,))
        assert 0.4 in ge


# any float64, and values the grid holds, both zeros and NaNs of three payloads
_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001], dtype=np.uint64)
_EXTRA = st.lists(st.one_of(st.floats(width=64),
                            st.sampled_from([0.0, -0.0, 0.5, 1.0, *_NANS.view(float).tolist()])),
                  max_size=12)


class TestMakeGridExtra:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 40), graded=st.booleans(), extra=_EXTRA)
    def test_same_bytes_as_unique(self, n, graded, extra):
        g = make_grid(n, graded=graded, extra=extra)
        base = make_grid(n, graded=graded)
        want = np.unique(np.concatenate([base, np.asarray(extra, dtype=float)])) if extra else base
        assert g.dtype == want.dtype and g.tobytes() == want.tobytes()

    def test_nans_collapse_to_one(self):
        g = make_grid(4, extra=(np.nan, 0.3, np.nan, 0.3))
        assert np.isnan(g).sum() == 1 and (g == 0.3).sum() == 1 and g.size == 8


class TestApplyK:
    def test_too_coarse(self):
        g = np.linspace(0.0, 1.0, 32)
        with pytest.raises(GridTooCoarseError):
            apply_K(GridFunction(g, np.zeros(32)))

    def test_zero_function_gives_inhomogeneous_term(self):
        g = make_grid(128)
        out = apply_K(GridFunction(g, np.zeros(g.size)))
        expected = 2.0 * beta_fn(B + 1.0, B + 1.0) / (B + 1.0) * _h2(g)
        assert np.array_equal(out.values, expected)

    def test_fixed_point_on_graded_grid(self):
        c2 = constants().c2
        g = make_grid(1024, graded=True)
        f = GridFunction(g, c2 * _h2(g))
        residual = np.max(np.abs(apply_K(f).values - f.values))
        assert residual <= 2e-6

    def test_fixed_point_floor_on_default_uniform_grid(self):
        # piecewise-linear h^2 on a uniform grid caps accuracy near the edges
        c2 = constants().c2
        g = make_grid(512)
        f = GridFunction(g, c2 * _h2(g))
        residual = np.max(np.abs(apply_K(f).values - f.values))
        assert residual <= 2.5e-4
        interior = (g > 0.05) & (g < 0.95)
        interior_res = np.max(np.abs(apply_K(f).values - f.values)[interior])
        assert interior_res <= 2e-5

    def test_single_application_against_independent_quadrature(self):
        # oracle: adaptive quadrature on each smooth piece of the interpolant
        # (pieces split at the kink positions x = s/u, u a grid value)
        from scipy.integrate import quad

        def edge_oracle(sigma, f):
            us = np.concatenate(
                ([sigma], f.grid[np.searchsorted(f.grid, sigma, side="right"):])
            )
            xs = np.sort(sigma / us)
            total = 0.0
            for a, bnd in zip(xs[:-1], xs[1:]):
                v, e = quad(lambda x: x ** (2 * B) * f.eval(sigma / x), a, bnd,
                            epsabs=1e-13)
                assert e < 1e-10
                total += v
            return total

        g = make_grid(512, extra=(0.5,))
        f = GridFunction(g, _h2(g))
        s = 0.5
        expected = (
            2.0 / (2.0 * B + 1.0) * (edge_oracle(s, f) + edge_oracle(1.0 - s, f))
            + 2.0 * beta_fn(B + 1.0, B + 1.0) / (B + 1.0) * _h2(np.array([s]))[0]
        )
        got = apply_K(f).eval(s)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_affine_in_f(self):
        rng = np.random.default_rng(3)
        g = make_grid(128)
        zero = apply_K(GridFunction(g, np.zeros(g.size))).values
        f = rng.uniform(0.0, 2.0, g.size)
        gg = rng.uniform(0.0, 2.0, g.size)
        a, bb = 0.3, 1.1
        combined = apply_K(GridFunction(g, a * f + bb * gg)).values - zero
        separate = (
            a * (apply_K(GridFunction(g, f)).values - zero)
            + bb * (apply_K(GridFunction(g, gg)).values - zero)
        )
        assert np.max(np.abs(combined - separate)) <= 1e-7

    def test_contraction_bound(self):
        rng = np.random.default_rng(4)
        g = make_grid(128)
        for _ in range(5):
            f = rng.uniform(-1.0, 3.0, g.size)
            q = rng.uniform(-1.0, 3.0, g.size)
            lhs = np.max(
                np.abs(apply_K(GridFunction(g, f)).values - apply_K(GridFunction(g, q)).values)
            )
            assert lhs <= CONTRACTION * np.max(np.abs(f - q)) + 1e-9


class TestSecondMomentIterates:
    def test_zero_iterations_is_h_squared(self):
        m0 = second_moment_iterates(0, make_grid())
        assert np.array_equal(m0.values, _h2(m0.grid))

    def test_monotone_nondecreasing_in_n(self):
        prev = second_moment_iterates(0, make_grid())
        for n in (1, 2, 3):
            cur = second_moment_iterates(n, make_grid())
            assert np.all(cur.values >= prev.values - 1e-12)
            prev = cur

    def test_geometric_convergence_to_fixed_point(self):
        c2 = constants().c2
        grid = make_grid(512, graded=True)
        target = c2 * _h2(grid)
        distances = []
        f = GridFunction(grid, _h2(grid))
        for _ in range(8):
            f = apply_K(f)
            distances.append(float(np.max(np.abs(f.values - target))))
        for d_prev, d_next in zip(distances, distances[1:]):
            if d_prev > 1e-5:  # above the discretization floor
                assert d_next <= (CONTRACTION + 0.02) * d_prev

    def test_iteration_cap(self):
        with pytest.raises(CapExceededError):
            second_moment_iterates(31, make_grid())

    def test_first_iterate_against_closed_form(self):
        # K(h^2)(s) = (2 c2^{-1}-independent): the two edge integrals of h^2
        # have the closed form s^b (1-s)^{b+1}/(b+1) and its mirror
        m1 = second_moment_iterates(1, make_grid(512, extra=(0.3,)))
        s = 0.3
        edge = s**B * (1.0 - s) ** (B + 1.0) / (B + 1.0)
        mirror = (1.0 - s) ** B * s ** (B + 1.0) / (B + 1.0)
        expected = (
            2.0 / (2.0 * B + 1.0) * (edge + mirror)
            + 2.0 * beta_fn(B + 1.0, B + 1.0) / (B + 1.0) * (s * (1 - s)) ** B
        )
        assert m1.eval(s) == pytest.approx(expected, abs=5e-5)


class TestGridCap:
    def test_cap_fits_one_block(self):
        from pmquad import moments

        assert moments._MAX_GRID <= moments._K_BLOCK

    def test_refused_before_geometry(self, monkeypatch):
        from pmquad import moments

        def geometry(*args, **kwargs):
            raise AssertionError("breakpoint geometry was built past the cap")

        monkeypatch.setattr(moments, "_MAX_GRID", 129)
        monkeypatch.setattr(moments, "_k_geometry", geometry)
        g = make_grid(128)
        with pytest.raises(CapExceededError, match="grid of 130 points exceeds cap 129"):
            apply_K(GridFunction(g, _h2(g)))

    def test_grid_at_cap_runs(self, monkeypatch):
        from pmquad import moments

        g = make_grid(128)
        expect = apply_K(GridFunction(g, _h2(g))).values
        monkeypatch.setattr(moments, "_MAX_GRID", 130)
        assert np.array_equal(apply_K(GridFunction(g, _h2(g))).values, expect)


class TestGeometryFootprint:
    """apply_K's geometry cache keeps per breakpoint only the grid index and
    the two power differences; the rest is rebuilt on each call."""

    @staticmethod
    def _grid():
        return make_grid(512, extra=(0.4,))

    def test_cached_bytes_per_breakpoint(self):
        from pmquad import moments

        g = self._grid()
        n = g.size
        step = max(1, moments._K_BLOCK // n)
        blocks = [moments._k_geometry(g.tobytes(), lo, min(lo + step, 2 * n))
                  for lo in range(0, 2 * n, step)]
        assert len(blocks) == 9
        # every row with 0 < sigma < 1 has sigma and the grid points above it
        sigma = np.concatenate((g, 1.0 - g))
        inner = sigma[(sigma > 0.0) & (sigma < 1.0)]
        breakpoints = int(np.sum(1 + (g > inner[:, None]).sum(axis=1)))
        assert breakpoints == sum(geo.col.size for geo in blocks)
        data = sum(v.nbytes for geo in blocks for v in geo if isinstance(v, np.ndarray))
        assert data <= 24 * breakpoints

    def test_fourteenth_iterate_peak(self):
        from pmquad import moments

        moments._kept_geometry.cache_clear()  # the blocks are built inside the trace
        tracemalloc.start()
        try:
            second_moment_iterates(14, self._grid())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        g = self._grid()
        assert len(moments._kept_geometry(g.tobytes(), moments._K_BLOCK // g.size)) == 9
        assert peak < 10 * 2**20


def test_rebuilt_blocks_fault_in_their_scratch_once():
    # with no geometry kept, each of a call's 126 blocks at 2002 points paged
    # its temporaries in afresh: about 103k faults over an import-only child
    # for two calls, where one scratch per call leaves about 2.2k.
    code = (
        "from pmquad import moments\n"
        "moments._K_CACHE_BYTES = 0\n"
        "g = moments.make_grid(2000)\n"
        "f = moments.GridFunction(g, (g * (1.0 - g)) ** 0.5)\n"
        "moments.apply_K(f)\n"
        "moments.apply_K(f)\n"
    )
    base = measure("-c", "from pmquad import moments")["minflt"]
    assert measure("-c", code)["minflt"] - base < 10_000
