"""Special functions and the closed-form constants of the partial-match cost laws.

Everything here is deterministic arithmetic: the Gamma/Beta functions, the
cost exponent ``beta`` (the root of b^2 + 3b = 2 in (0,1)), the profile
function ``h``, and the constant set tying mean, variance and supremum
asymptotics together for quadtrees and both 2-d tree query flavors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

__all__ = [
    "gamma",
    "beta_fn",
    "beta_exponent",
    "h",
    "ConstantSet",
    "constants",
]


def gamma(x: float) -> float:
    """Gamma function for real x > 0 (the standard library's ``math.gamma``)."""
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x!r}")
    return math.gamma(x)


def beta_fn(a: float, b: float) -> float:
    """Eulerian integral B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta_fn requires positive arguments, got ({a!r}, {b!r})")
    return gamma(a) * gamma(b) / gamma(a + b)


def beta_exponent() -> float:
    """The cost exponent (sqrt(17) - 3) / 2, i.e. the root of b^2 + 3b - 2 in (0,1)."""
    return (math.sqrt(17.0) - 3.0) / 2.0


def h(s):
    """Profile function h(s) = (s (1 - s))^(beta/2) on [0, 1].

    Accepts a scalar or a numpy array; symmetric about 1/2 and vanishing at
    the endpoints.  This is the shape of the normalized mean cost and the
    seed function of the limit-process iteration.
    """
    b2 = beta_exponent() / 2.0
    if hasattr(s, "__len__") or hasattr(s, "ndim"):
        import numpy as np

        arr = np.asarray(s, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("h is defined on [0, 1]")
        return (arr * (1.0 - arr)) ** b2
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"h is defined on [0, 1], got {s!r}")
    return (s * (1.0 - s)) ** b2


@dataclass(frozen=True)
class ConstantSet:
    """All closed-form constants of the cost laws, computed once from Gamma/Beta.

    ``kappa``/``K1`` scale the mean at a uniform/fixed query, ``c2``/``K2``/
    ``K3``/``K4`` the second moments, ``mean_z_xi`` is the mean of the limit
    at a uniform query, and the ``*_par``/``*_perp`` fields are the 2-d tree
    analogues for a root split parallel/perpendicular to the query line.
    """

    beta: float
    kappa: float
    K1: float
    c2: float
    K2: float
    K3: float
    K4: float
    mean_z_xi: float
    kappa_par: float
    kappa_perp: float
    K1_par: float
    K1_perp: float
    K2_perp: float
    K3_perp: float
    K4_par: float
    K4_perp: float

    def as_rows(self):
        """(name, value) pairs in field order, for CSV emission."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


@lru_cache(maxsize=1)
def constants() -> ConstantSet:
    """Compute every constant from its closed form.

    Mean scale:
        kappa   = Gamma(2b+2) / (2 Gamma(b+1)^3)
        K1      = Gamma(2b+2) Gamma(b+2) / (2 Gamma(b+1)^3 Gamma(b/2+1)^2)
    Second moments:
        c2      = 2 B(b+1, b+1) (2b+1) / (3 (1-b))
        K2      = c2 - 1
        K3      = c2 B(b+1, b+1) - B(b/2+1, b/2+1)^2
        K4      = K1^2 K3
    2-d trees:
        kappa_par  = (13 (3-5b) / 4) Gamma(2b+2) / Gamma(b+1)^3
        kappa_perp = (13 (2b-1) / 2) Gamma(2b+2) / Gamma(b+1)^3
        K1_par  = kappa_par / B(b/2+1, b/2+1),   and likewise K1_perp
        K2_perp = ((b+1)/2)^2 (2 c2/(2b+1) + 2 B(b+1, b+1)) - 1
        K3_perp = (1 + K2_perp) B(b+1, b+1) - B(b/2+1, b/2+1)^2
        K4_par  = K1_par^2 K3,   K4_perp = K1_perp^2 K3_perp
    """
    b = beta_exponent()
    g2b2 = gamma(2.0 * b + 2.0)
    gb1 = gamma(b + 1.0)
    B11 = beta_fn(b + 1.0, b + 1.0)
    Bhh = beta_fn(b / 2.0 + 1.0, b / 2.0 + 1.0)

    kappa = g2b2 / (2.0 * gb1**3)
    K1 = g2b2 * gamma(b + 2.0) / (2.0 * gb1**3 * gamma(b / 2.0 + 1.0) ** 2)
    c2 = 2.0 * B11 * (2.0 * b + 1.0) / (3.0 * (1.0 - b))
    K2 = c2 - 1.0
    K3 = c2 * B11 - Bhh**2
    K4 = K1**2 * K3
    mean_z_xi = gamma(b / 2.0 + 1.0) ** 2 / gamma(b + 2.0)

    kappa_par = 13.0 * (3.0 - 5.0 * b) / 4.0 * g2b2 / gb1**3
    kappa_perp = 13.0 * (2.0 * b - 1.0) / 2.0 * g2b2 / gb1**3
    K1_par = kappa_par / Bhh
    K1_perp = kappa_perp / Bhh
    half1b = ((b + 1.0) / 2.0) ** 2
    K2_perp = half1b * (2.0 * c2 / (2.0 * b + 1.0) + 2.0 * B11) - 1.0
    K3_perp = (1.0 + K2_perp) * B11 - Bhh**2
    K4_par = K1_par**2 * K3
    K4_perp = K1_perp**2 * K3_perp

    return ConstantSet(
        beta=b,
        kappa=kappa,
        K1=K1,
        c2=c2,
        K2=K2,
        K3=K3,
        K4=K4,
        mean_z_xi=mean_z_xi,
        kappa_par=kappa_par,
        kappa_perp=kappa_perp,
        K1_par=K1_par,
        K1_perp=K1_perp,
        K2_perp=K2_perp,
        K3_perp=K3_perp,
        K4_par=K4_par,
        K4_perp=K4_perp,
    )
