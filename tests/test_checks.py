"""The acceptance checks of ``run_check``, on synthetic replication values.

Each kind's summarize function gets a small ``values`` array built to sit
on the paper's law (no trees are sampled), and ``run_check`` must pass it;
each failure branch then gets values doctored to break that one bound, and
reports exactly one failure.
"""

import numpy as np

from pmquad.harness import EXPERIMENT_KINDS, ExperimentSpec, run_check
from pmquad.moments import make_grid, second_moment_iterates
from pmquad.specfun import constants, h

C = constants()
# a fixed column with mean 0 and unbiased variance 1, up to rounding
Z = np.linspace(-1.0, 1.0, 101)
Z = (Z - Z.mean()) / Z.std(ddof=1)


def _failures(spec, values, tol_scale=1.0):
    table = EXPERIMENT_KINDS[spec.kind][1](spec, np.asarray(values, dtype=float))
    return run_check(spec, table, tol_scale)


def _column(mean, var):
    return mean + np.sqrt(var) * Z


class TestMeanProfile:
    SPEC = ExperimentSpec(kind="mean-profile", sizes=(1000,), s_grid=(0.0, 0.3, 0.5))

    def _values(self, shift=1.0):
        scale = C.K1 * 1000**C.beta
        cols = [_column(h(s) * scale, 4.0) for s in self.SPEC.s_grid]
        cols[1] = cols[1] * shift
        return np.column_stack(cols)

    def test_passes_on_h(self):
        assert _failures(self.SPEC, self._values()) == []

    def test_normalized_mean_off_h(self):
        # s = 0 has h = 0 and is never checked
        (failure,) = _failures(self.SPEC, self._values(shift=1.2))
        assert failure.startswith("s=0.3:")


class TestSupremum:
    def _values(self, norms):
        sizes = (500, 2000)[: len(norms)]
        cols = [_column(norm * C.K1 * n**C.beta, 1.0) for n, norm in zip(sizes, norms)]
        return ExperimentSpec(kind="supremum", sizes=sizes), np.column_stack(cols)

    def test_passes_above_max_h(self):
        assert _failures(*self._values((0.9, 1.0))) == []

    def test_not_above_max_h(self):
        assert 0.6 <= 2.0 ** (-C.beta)
        (failure,) = _failures(*self._values((0.6,)))
        assert failure.startswith("n=500: normalized sup")

    def test_spread_over_sizes(self):
        (failure,) = _failures(*self._values((0.9, 1.2)))
        assert failure.startswith("normalized sup varies by")


class TestLimitMoments:
    SPEC = ExperimentSpec(kind="limit-moments", depth=3, s=0.4)

    def _values(self, mean_shift=0.0, var_scale=1.0):
        hs = h(self.SPEC.s)
        m2 = float(second_moment_iterates(3, make_grid(512, extra=(0.4,))).eval(0.4))
        var = (m2 - hs**2) * var_scale
        return _column(hs + mean_shift * np.sqrt(var), var).reshape(-1, 1)

    def test_passes_on_the_oracle(self):
        assert _failures(self.SPEC, self._values()) == []

    def test_mean_off_h(self):
        (failure,) = _failures(self.SPEC, self._values(mean_shift=1.0))
        assert failure.startswith("|mean")

    def test_variance_off_the_oracle(self):
        (failure,) = _failures(self.SPEC, self._values(var_scale=2.0))
        assert failure.startswith("|var")


class TestPoissonMean:
    SPEC = ExperimentSpec(kind="poisson-mean", t=300.0)
    TARGET = C.kappa * 300.0**C.beta - 1.0

    def test_passes_on_the_target(self):
        assert _failures(self.SPEC, _column(self.TARGET, 25.0).reshape(-1, 1)) == []

    def test_mean_off_the_target(self):
        (failure,) = _failures(self.SPEC, _column(1.2 * self.TARGET, 25.0).reshape(-1, 1))
        assert failure.startswith("|mean")


class TestVarianceUniform:
    SPEC = ExperimentSpec(kind="variance-uniform-query", sizes=(100, 400))

    def _values(self, norms):
        return np.column_stack([_column(C.kappa * n**C.beta - 1.0, norm * C.K4 * n ** (2 * C.beta))
                                for n, norm in zip(self.SPEC.sizes, norms)])

    def test_passes_near_k4(self):
        assert _failures(self.SPEC, self._values((0.9, 1.05))) == []

    def test_trend_not_nondecreasing(self):
        (failure,) = _failures(self.SPEC, self._values((1.1, 1.05)))
        assert failure.startswith("var/n^2b not nondecreasing")

    def test_final_variance_off_k4(self):
        (failure,) = _failures(self.SPEC, self._values((1.3, 1.4)))
        assert failure.startswith("final var/n^2b")

    def test_tolerance_scale_reaches_the_k4_bound(self):
        (failure,) = _failures(self.SPEC, self._values((0.9, 1.05)), tol_scale=1e-9)
        assert failure.startswith("final var/n^2b")


class TestCoupling:
    SPEC = ExperimentSpec(kind="coupling", t=100.0, eps=0.1, s=0.3)

    def _values(self, violate=False):
        ext = np.round(_column(20.0, 9.0))
        base = ext - (np.arange(ext.size) % 3)
        if violate:
            base[7] = ext[7] + 1
        return np.column_stack([base, ext, ext])

    def test_passes_without_violations(self):
        assert _failures(self.SPEC, self._values()) == []

    def test_a_pathwise_violation(self):
        assert _failures(self.SPEC, self._values(violate=True)) == [
            "1 pathwise violations of base <= extended"]
