"""Partial-match query costs in random quadtrees and 2-d trees.

Subpackages by concern: ``specfun`` (constants and special functions),
``moments`` (moment recursions and the second-moment operator), ``quadtree``
and ``kdtree`` (structures and exact costs), ``limitproc`` (limit-process
approximants), ``harness`` (seeded Monte Carlo experiments), ``table``
(result tables and their CSV and plot formats), ``cli``.
"""

from .specfun import ConstantSet, beta_exponent, constants, h

__version__ = "0.1.0"

__all__ = ["ConstantSet", "beta_exponent", "constants", "h"]
