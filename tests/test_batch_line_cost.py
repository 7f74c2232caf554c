"""The level-wise batch kernel behind ``harness._line_costs``' small trees.

``quadtree._batch_line_costs`` is checked tree by tree against
``line_cost`` / ``kdtree.line_cost`` and against the object-tree oracles
(``cost``, ``cost_parallel``, ``cost_perp``), on batches that mix tree sizes
and put points on the square's edges and queries on a point's x.  Only
points in general position have an oracle: object trees refuse a repeated
coordinate (``DuplicateCoordinateError``), and there the two kernels may
disagree (for example two points at x = 1.0 with s = 0.75), so repeated
coordinates are not tested.

``reference_line_costs`` is ``harness._line_costs`` as it was before small
trees were batched, kept verbatim as the oracle of the stream and of the
counts.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmquad import harness, kdtree, quadtree
from pmquad.harness import _line_costs, _streams
from pmquad.quadtree import _KD_H, _KD_V, _QUAD, _batch_line_costs

RULES = {_QUAD: None, _KD_V: "v", _KD_H: "h"}


def reference_line_costs(prefix, lo, hi, n=0, t=None, s=None, root_axis=None, suffix=()):
    out = np.empty(hi - lo, dtype=np.int64)
    for i, rng in enumerate(_streams(prefix, lo, hi, suffix)):
        if t is None:
            xs, ys = quadtree.sample_uniform_xy(n, rng)
        else:
            xs, ys = quadtree.sample_poisson_xy(t, rng)
        xi = float(rng.random()) if s is None else s
        if root_axis is None:
            out[i] = quadtree.line_cost(xs, ys, xi)
        else:
            out[i] = kdtree.line_cost(xs, ys, xi, root_axis)
    return out


def _line_cost(xs, ys, s, axis):
    return quadtree.line_cost(xs, ys, s) if axis is None else kdtree.line_cost(xs, ys, s, axis)


def _oracle(xs, ys, s, axis):
    points = quadtree._points(xs, ys)
    if axis is None:
        return quadtree.cost(quadtree.build(points), s)
    tree = kdtree.build_kd(points, axis)
    return kdtree.cost_parallel(tree, s) if axis == "v" else kdtree.cost_perp(tree, s)


@st.composite
def batches(draw):
    """(trees, queries): trees of 0..300 points in general position, some
    with a point at x or y = 0.0 or 1.0, queried at 0, 1, a point's x or a
    uniform position."""
    sizes = draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 300)),
                          min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trees, queries = [], []
    for n in sizes:
        xs, ys = rng.random(n), rng.random(n)
        for a in (xs, ys):
            if n >= 2 and draw(st.booleans()):
                a[rng.choice(n, 2, replace=False)] = (0.0, 1.0)
        assert np.unique(xs).size == np.unique(ys).size == n
        where = draw(st.sampled_from(("zero", "one", "point", "uniform")))
        if where == "point" and n:
            s = float(xs[rng.integers(n)])
        else:
            s = {"zero": 0.0, "one": 1.0}.get(where, float(rng.random()))
        trees.append((xs, ys))
        queries.append(s)
    return trees, queries


class TestBatchKernelMatchesLineCostAndOracles:
    @given(batches(), st.sampled_from(sorted(RULES)))
    @settings(max_examples=60, deadline=None)
    def test_every_tree_of_a_batch(self, batch, rule):
        trees, queries = batch
        axis = RULES[rule]
        xs = np.concatenate([t[0] for t in trees])
        ys = np.concatenate([t[1] for t in trees])
        counts = _batch_line_costs(xs, ys, [t[0].size for t in trees], queries, rule)
        assert counts.shape == (len(trees),)
        for (txs, tys), s, got in zip(trees, queries, counts.tolist()):
            assert got == _line_cost(txs, tys, s, axis) == _oracle(txs, tys, s, axis)

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_empty_trees_and_empty_batch(self, rule):
        empty = np.empty(0)
        assert _batch_line_costs(empty, empty, [0, 0, 0], [0.0, 0.5, 1.0], rule).tolist() == [0] * 3
        assert _batch_line_costs(empty, empty, [], [], rule).tolist() == []


LINE_COST_CASES = {
    "n0": dict(n=0),
    "n1": dict(n=1),
    "n64": dict(n=64),
    "n1024": dict(n=1024),
    "n1025": dict(n=1025),
    "poisson200": dict(t=200.0),
    "kd-v": dict(n=300, root_axis="v"),
    "kd-h": dict(t=200.0, root_axis="h"),
    "fixed-s": dict(n=64, s=0.375),
    "suffix": dict(t=150.0, s=0.9, suffix=(1,)),
}


class TestLineCostsMatchThePerStreamLoop:
    @pytest.mark.parametrize("case", sorted(LINE_COST_CASES))
    def test_small_batch_budget(self, monkeypatch, case):
        # 700 points per call: n = 64 flushes mid-block, n = 1024 runs alone
        kw = LINE_COST_CASES[case]
        calls = []

        def spy(xs, ys, sizes, s, rule):
            calls.append(list(sizes))
            return _batch_line_costs(xs, ys, sizes, s, rule)

        monkeypatch.setattr(quadtree, "_BATCH_POINTS", 700)
        monkeypatch.setattr(quadtree, "_batch_line_costs", spy)
        got = _line_costs((5, 1), 3, 43, **kw)
        assert got.dtype == np.int64
        assert got.tolist() == reference_line_costs((5, 1), 3, 43, **kw).tolist()
        assert all(sum(c) <= 700 or len(c) == 1 for c in calls)
        assert all(max(c, default=0) <= quadtree._BATCH_MAX for c in calls)
        if kw.get("n") == 64:
            assert len(calls) == 4  # 10 trees per call
        if kw.get("n") == 1024:
            assert calls == [[1024]] * 40
        if kw.get("n") == 1025:
            assert calls  # screened: only the survivors of each head's slices are batched

    @pytest.mark.parametrize("case", ["n64", "poisson200", "kd-h", "fixed-s"])
    def test_default_budget_full_block(self, case):
        kw = LINE_COST_CASES[case]
        got = _line_costs((11,), 256, 512, **kw)
        assert got.tolist() == reference_line_costs((11,), 256, 512, **kw).tolist()

    def test_fixed_query_checked_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(harness, "_streams", lambda *a: pytest.fail("sampled"))
        with pytest.raises(ValueError, match=r"query position must lie in \[0, 1\], got 1.5"):
            _line_costs((0,), 0, 4, 10, s=1.5)


def test_block_memory_is_bounded_by_the_batch_budget():
    # one 256-stream block of the largest batched trees: 16 calls of 2^14 points
    tracemalloc.start()
    try:
        _line_costs((3,), 0, 256, quadtree._BATCH_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
