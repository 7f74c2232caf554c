"""The exact finite-n mean recursions of ``mean_oracles`` against hand-derived
values, against ``constants()``' kappa, kappa_par and kappa_perp, and against
``simulate-cost``'s sampled means, for trees counted whole and screened, of
a fixed size and of a Poisson(T) size."""

import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pmquad.cli import main
from pmquad.harness import parse_csv
from pmquad.specfun import constants

from mean_oracles import kd_means, quadtree_means


def _means(flavour: str):
    """The float means of one flavour (quad, or the kd root axis v or h) at n = 1, 2, ..."""
    return quadtree_means() if flavour == "quad" else (vh["vh".index(flavour)] for vh in kd_means())


def _mean(flavour: str, n: int) -> float:
    return next(itertools.islice(_means(flavour), n - 1, None))


def _poisson_mean(flavour: str, t: float) -> float:
    """sum_k P(Poisson(t) = k) mean_k, with mean_0 = 0.  The sizes left out,
    past t + 20 sqrt(t) + 20, have probability below e^-140 for t >= 100
    (a Chernoff bound)."""
    terms = range(1, int(t + 20.0 * math.sqrt(t) + 20.0))
    return math.fsum(math.exp(k * math.log(t) - t - math.lgamma(k + 1)) * mean
                     for k, mean in zip(terms, _means(flavour)))


def test_small_means_are_exact():
    # n = 2: the second point is visited with probability E[U^2 + (1 - U)^2]
    # = 2/3 when the root splits x (quadtree, kd v), and always when it
    # splits only y (kd h)
    assert list(itertools.islice(quadtree_means(Fraction(1)), 4)) == [
        1, Fraction(5, 3), Fraction(20, 9), Fraction(122, 45)]
    assert list(itertools.islice(kd_means(Fraction(1)), 2)) == [(1, 1), (Fraction(5, 3), 2)]


@pytest.mark.parametrize("flavour, kappa, shift", [
    ("quad", "kappa", 1.0), ("v", "kappa_par", 2.0), ("h", "kappa_perp", 3.0)])
def test_means_approach_the_kappa_law(flavour, kappa, shift):
    # mean_n - (kappa n^beta - shift) decays like n^(beta - 1): with a wrong
    # kappa the scaled residual would grow like n
    c = constants()
    scaled = [(_mean(flavour, n) - (getattr(c, kappa) * n**c.beta - shift)) * n ** (1.0 - c.beta)
              for n in (10**5, 10**6)]
    assert scaled[1] == pytest.approx(scaled[0], rel=1e-3)


@pytest.mark.parametrize("size, value, reps", [
    ("--n", 100, 40_000), ("--n", 2000, 10_000), ("--poisson", 100, 40_000),
    ("--poisson", 2000, 10_000)], ids=["whole", "screened", "poisson-whole", "poisson-screened"])
@pytest.mark.parametrize("flavour", ["quad", "v", "h"])
def test_sampled_mean_matches_the_exact_mean(flavour, size, value, reps, capsys):
    tree = [] if flavour == "quad" else ["--tree", "kd", "--root-axis", flavour]
    argv = ["--seed", "7", "--threads", "2", "simulate-cost", size, str(value),
            "--replications", str(reps), *tree]
    assert main(argv) == 0
    costs = np.array([row[1] for row in parse_csv(io.StringIO(capsys.readouterr().out)).rows])
    exact = _mean(flavour, value) if size == "--n" else _poisson_mean(flavour, value)
    assert abs(costs.mean() - exact) < 4.0 * costs.std(ddof=1) / np.sqrt(costs.size)
