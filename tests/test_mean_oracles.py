"""The exact finite-n mean recursions of ``mean_oracles`` against hand-derived
values, against ``constants()``' kappa, kappa_par and kappa_perp, and against
``simulate-cost``'s sampled means, for trees counted whole and screened."""

import io
import itertools
from fractions import Fraction

import numpy as np
import pytest

from pmquad.cli import main
from pmquad.harness import parse_csv
from pmquad.specfun import constants

from mean_oracles import kd_means, quadtree_means


def _mean(flavour: str, n: int) -> float:
    """The float mean of one flavour (quad, or the kd root axis v or h) at n."""
    gen = quadtree_means() if flavour == "quad" else (vh["vh".index(flavour)] for vh in kd_means())
    return next(itertools.islice(gen, n - 1, None))


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


@pytest.mark.parametrize("n, reps", [(100, 40_000), (2000, 10_000)], ids=["whole", "screened"])
@pytest.mark.parametrize("flavour", ["quad", "v", "h"])
def test_sampled_mean_matches_the_exact_mean(flavour, n, reps, capsys):
    tree = [] if flavour == "quad" else ["--tree", "kd", "--root-axis", flavour]
    argv = ["--seed", "7", "--threads", "2", "simulate-cost", "--n", str(n),
            "--replications", str(reps), *tree]
    assert main(argv) == 0
    costs = np.array([row[1] for row in parse_csv(io.StringIO(capsys.readouterr().out)).rows])
    assert abs(costs.mean() - _mean(flavour, n)) < 4.0 * costs.std(ddof=1) / np.sqrt(costs.size)
