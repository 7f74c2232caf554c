import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmquad.specfun import ConstantSet, beta_exponent, beta_fn, constants, gamma, h

B = beta_exponent()


class TestGamma:
    def test_classical_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert gamma(4.0) == pytest.approx(6.0, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            gamma(x)

    def test_recurrence_on_required_range(self):
        rng = np.random.default_rng(20240817)
        for x in rng.uniform(0.5, 9.0, size=100):
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_reflection(self):
        for x in (0.1, 0.3, 0.7, 0.9):
            assert gamma(x) * gamma(1.0 - x) == pytest.approx(
                math.pi / math.sin(math.pi * x), rel=1e-12
            )

    @given(st.floats(min_value=0.5, max_value=9.0, exclude_min=True))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_agrees_with_stdlib(self):
        for x in np.linspace(0.6, 10.0, 40):
            assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)


class TestBetaFn:
    def test_trivial_values(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert beta_fn(2.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, -2.0)

    def test_against_quadrature(self):
        # independent oracle: adaptive quadrature of the defining integral
        from scipy.integrate import quad

        val, err = quad(lambda t: t**B * (1.0 - t) ** B, 0.0, 1.0)
        assert err < 1e-8
        assert beta_fn(B + 1.0, B + 1.0) == pytest.approx(val, abs=1e-9)


class TestBetaExponent:
    def test_extended_precision_value(self):
        import mpmath

        mpmath.mp.dps = 40
        ref = float((mpmath.sqrt(17) - 3) / 2)
        assert B == pytest.approx(ref, abs=1e-15)

    def test_defining_quadratic(self):
        assert abs(B * B + 3.0 * B - 2.0) < 1e-14

    def test_shifted_product_is_four(self):
        assert abs((B + 1.0) * (B + 2.0) - 4.0) < 1e-14


class TestH:
    def test_boundary_zeros(self):
        assert h(0.0) == 0.0
        assert h(1.0) == 0.0

    def test_midpoint(self):
        assert h(0.5) == pytest.approx(2.0 ** (-B), rel=1e-13)

    def test_symmetry_bit_exact(self):
        assert h(0.25) == h(0.75)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            h(-0.01)
        with pytest.raises(ValueError):
            h(1.01)

    def test_peaks_at_half(self):
        s = np.linspace(0.0, 1.0, 501)
        assert np.all(h(s) <= h(0.5) + 1e-15)

    def test_array_matches_scalar(self):
        s = np.array([0.1, 0.4, 0.9])
        assert np.allclose(h(s), [h(v) for v in s], rtol=1e-15)


class TestConstants:
    def setup_method(self):
        self.c = constants()

    def test_paper_decimal_anchors(self):
        assert self.c.K4 == pytest.approx(0.447363034, abs=1e-6)
        assert self.c.K4_par == pytest.approx(0.69848, abs=1e-4)
        assert self.c.K4_perp == pytest.approx(0.77754, abs=1e-4)

    def test_beta_field(self):
        assert self.c.beta == B

    def test_variance_combinations(self):
        assert self.c.K4 == pytest.approx(self.c.K1**2 * self.c.K3, rel=1e-10)
        assert self.c.K4_par == pytest.approx(self.c.K1_par**2 * self.c.K3, rel=1e-10)
        assert self.c.K4_perp == pytest.approx(
            self.c.K1_perp**2 * self.c.K3_perp, rel=1e-10
        )

    def test_kd_mean_constants_vs_quadtree(self):
        assert self.c.kappa_par == pytest.approx(
            13.0 * (3.0 - 5.0 * B) / 2.0 * self.c.kappa, rel=1e-10
        )
        assert self.c.kappa_perp == pytest.approx(
            13.0 * (2.0 * B - 1.0) * self.c.kappa, rel=1e-10
        )
        assert self.c.K1_perp == pytest.approx(
            2.0 / (1.0 + B) * self.c.K1_par, rel=1e-10
        )

    def test_second_moment_identities(self):
        B11 = beta_fn(B + 1.0, B + 1.0)
        Bhh = beta_fn(B / 2.0 + 1.0, B / 2.0 + 1.0)
        assert self.c.K2 == pytest.approx(self.c.c2 - 1.0, rel=1e-10)
        assert self.c.K3 == pytest.approx(self.c.c2 * B11 - Bhh**2, rel=1e-10)
        assert self.c.mean_z_xi == pytest.approx(Bhh, rel=1e-12)

    def test_mean_z_xi_against_quadrature_of_h(self):
        from scipy.integrate import quad

        val, err = quad(lambda s: (s * (1.0 - s)) ** (B / 2.0), 0.0, 1.0)
        assert err < 1e-8
        assert self.c.mean_z_xi == pytest.approx(val, abs=1e-9)

    def test_cached_and_immutable(self):
        assert constants() is self.c
        with pytest.raises(AttributeError):
            self.c.K4 = 0.0

    def test_csv_rows_cover_all_fields(self):
        rows = self.c.as_rows()
        assert len(rows) == len(ConstantSet.__dataclass_fields__)
        # field order is the row order of `pmquad constants`
        names = [name for name, _ in rows]
        assert names == [f.name for f in dataclasses.fields(ConstantSet)]
        assert names == ["beta", "kappa", "K1", "c2", "K2", "K3", "K4", "mean_z_xi",
                         "kappa_par", "kappa_perp", "K1_par", "K1_perp", "K2_perp",
                         "K3_perp", "K4_par", "K4_perp"]
        assert all(value == getattr(self.c, name) for name, value in rows)
