"""Exact means of the partial-match cost at a uniform query, for trees of
n = 1, 2, ... uniform points.

Condition on the root (U, V) and use
int_0^u C(n-1, k) w^k (1 - w)^(n-1-k) dw = P(Bin(n, u) > k) / n.  With
mu_0 = V_0 = H_0 = 0 the means satisfy

- quadtree:  mu_n = 1 + 4 sum_{k<n} (n - k) mu_k / (n (n + 1))
  (Flajolet, Gonnet, Puech and Robson, Analytic variations on quadtrees,
  Algorithmica 1993);
- 2-d tree whose root splits parallel to the query line (``--root-axis v``):
  V_n = 1 + 2 sum_{k<n} (k + 1) H_k / (n (n + 1));
- 2-d tree whose root splits across it (``h``): H_n = 1 + 2 sum_{k<n} V_k / n
  (Flajolet and Puech, Partial match retrieval of multidimensional data,
  JACM 1986).

Each generator keeps running sums, so n terms take O(n) operations in the
number type of ``one``: ``1.0`` for floats, ``Fraction(1)`` for exact values.
"""


def quadtree_means(one=1.0):
    """Yields mu_1, mu_2, ..."""
    # with n the last index yielded: mu_n, sum_{k<n} mu_k and sum_{k<n} k mu_k
    mu = s0 = s1 = 0 * one
    n = 0
    while True:
        s0 += mu
        s1 += n * mu
        n += 1
        mu = one + 4 * (n * s0 - s1) / (n * (n + 1))
        yield mu


def kd_means(one=1.0):
    """Yields (V_1, H_1), (V_2, H_2), ..."""
    # with n the last index yielded: V_n, H_n, sum_{k<n} (k + 1) H_k and sum_{k<n} V_k
    v = h = t = sv = 0 * one
    n = 0
    while True:
        n += 1
        t += n * h
        sv += v
        v, h = one + 2 * t / (n * (n + 1)), one + 2 * sv / n
        yield v, h
