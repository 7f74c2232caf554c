"""Large sampled trees: an exact head, one slice screen, survivors batched.

``quadtree._sampled_costs`` counts a tree of more than ``_BATCH_MAX`` points
as ``quadtree._screen`` splits it: the first ``HEAD`` points get the exact
per-point update, the later points inside the slices the head leaves are
grouped by slice, and ``_batch_line_costs`` counts each slice as a tree of
its own, many trees per call.  Every count is checked against
``_slice_cost`` (the one-tree kernel) and the object-tree oracles
(``cost``, ``cost_parallel``, ``cost_perp``); the experiment blocks built on
it are checked against their per-tree loops and across worker counts.
Points are in general position, where the kernels agree (see
``test_batch_line_cost``).
"""

import numpy as np
import pytest

from pmquad import harness, kdtree, quadtree
from pmquad.cli import main
from pmquad.harness import ExperimentSpec, _streams
from pmquad.quadtree import (_KD_H, _KD_V, _QUAD, HEAD, _batch_line_costs, _sampled_costs, _screen,
                             _slice_cost)

RULES = {_QUAD: None, _KD_V: "v", _KD_H: "h"}
BIG = quadtree._BATCH_MAX
SIZES = (HEAD - 1, HEAD, HEAD + 1, BIG - 1, BIG, BIG + 1, 2000, 8000)


def _oracle_costs(xs, ys, queries, axis):
    """The object tree's cost at each query."""
    points = quadtree._points(xs, ys)
    if axis is None:
        tree = quadtree.build(points)
        return [quadtree.cost(tree, s) for s in queries]
    tree = kdtree.build_kd(points, axis)
    cost = kdtree.cost_parallel if axis == "v" else kdtree.cost_perp
    return [cost(tree, s) for s in queries]


def _batched(trees, rule):
    """Each (xs, ys, s) tree's cost through one _sampled_costs call."""
    return _sampled_costs(iter(trees), RULES[rule]).tolist()


def _tree(n, seed, negative=False):
    """n points in general position, one each at x = 1.0 and y = 0.0 and
    1.0 when n allows; with ``negative`` a tenth of the x's lie in [-0.101, -0.001]."""
    rng = np.random.default_rng([2017, n, seed])
    xs, ys = rng.random(n), rng.random(n)
    if n >= 3:
        xs[n // 2] = 1.0
        ys[[n // 3, 2 * n // 3]] = (0.0, 1.0)
    if negative:
        xs[::10] -= 1.1 * xs[::10] + 0.001
    assert np.unique(xs).size == np.unique(ys).size == n
    return xs, ys


def _queries(xs):
    return [0.0, 1.0, float(xs[len(xs) // 4]), 0.3]


class TestOneTreeMatchesSliceCostAndOracles:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_sizes_and_edge_queries(self, n, rule):
        xs, ys = _tree(n, rule)
        qs = _queries(xs)
        got = _batched([(xs, ys, s) for s in qs], rule)
        assert got == [_slice_cost(xs, ys, s, rule) for s in qs]
        assert got == _oracle_costs(xs, ys, qs, RULES[rule])

    @pytest.mark.parametrize("n", [HEAD + 1, BIG + 1, 2000, 8000])
    def test_negative_x_of_the_coupling_extension(self, n):
        xs, ys = _tree(n, 7, negative=True)
        keep = xs >= 0.0
        for s in _queries(xs[keep]):
            base, ext = _batched([(xs[keep], ys[keep], s), (xs, ys, s)], _QUAD)
            assert (base, ext) == quadtree.coupled_extension_cost(xs, ys, 0.1, s)
            # the oracle tree's root is the unit square: map [-0.2, 1] onto it
            assert [ext] == _oracle_costs((xs + 0.2) / 1.2, ys, [(s + 0.2) / 1.2], None)

    def test_a_head_of_129_slices(self):
        # every head point crosses, closing in on s from both sides, so the
        # head leaves HEAD + 1 slices
        n, s = 3000, 0.5
        xs, ys = _tree(n, 3)
        k = np.arange(HEAD)
        xs[:HEAD] = s + np.where(k % 2, -1.0, 1.0) * 0.4 * 0.95**k
        assert np.unique(xs).size == n
        count, ((rule, x, y, sizes),) = _screen(xs, ys, s, _QUAD)
        assert count == HEAD and rule == _QUAD and sizes.size == HEAD + 1
        assert _batched([(xs, ys, s)], _QUAD) == [_slice_cost(xs, ys, s, _QUAD)]
        assert _batched([(xs, ys, s)], _QUAD) == _oracle_costs(xs, ys, [s], None)


class TestScreen:
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_groups(self, rule):
        xs, ys = _tree(5000, 11)
        s = 0.7
        count, groups = _screen(xs, ys, s, rule)
        assert count == _slice_cost(xs[:HEAD], ys[:HEAD], s, rule)
        want = (_QUAD,) if rule == _QUAD else (_KD_V, _KD_H)
        assert tuple(g[0] for g in groups) == want
        later = set(range(HEAD, xs.size))
        total = count
        for r, x, y, sizes in groups:
            assert x.size == y.size == sizes.sum()
            # survivors are later points, in arrival order within a slice
            idx = [int(np.flatnonzero(xs == v)[0]) for v in x.tolist()]
            assert set(idx) <= later
            for run in np.split(np.array(idx), np.cumsum(sizes)[:-1]):
                assert np.all(np.diff(run) > 0)
            total += int(_batch_line_costs(x, y, sizes, np.full(sizes.size, s), r).sum())
        assert total == _slice_cost(xs, ys, s, rule)

    def test_head_only(self):
        xs, ys = _tree(HEAD, 2)
        assert _screen(xs, ys, 0.4, _QUAD) == (_slice_cost(xs, ys, 0.4, _QUAD), ())


def reference_line_costs(prefix, lo, hi, n=0, t=None, s=None, root_axis=None):
    out = []
    for rng in _streams(prefix, lo, hi):
        if t is None:
            xs, ys = quadtree.sample_uniform_xy(n, rng)
        else:
            xs, ys = quadtree.sample_poisson_xy(t, rng)
        xi = float(rng.random()) if s is None else s
        out.append(_slice_cost(xs, ys, xi, kdtree._rule(root_axis) if root_axis else _QUAD))
    return out


class TestBatchBudget:
    @pytest.mark.parametrize("kw", [dict(n=BIG + 1), dict(n=3000, root_axis="v"),
                                    dict(n=2000, root_axis="h", s=1.0),
                                    dict(t=float(BIG)), dict(t=2.0), dict(t=0.0)],
                             ids=["n1025", "kd-v", "kd-h-s1", "poisson1024", "poisson2",
                                  "poisson0"])
    def test_small_budget(self, monkeypatch, kw):
        calls = []

        def spy(xs, ys, sizes, s, rule):
            calls.append((rule, list(sizes)))
            return _batch_line_costs(xs, ys, sizes, s, rule)

        monkeypatch.setattr(quadtree, "_BATCH_POINTS", 700)
        monkeypatch.setattr(quadtree, "_batch_line_costs", spy)
        got = harness._line_costs((8, 2), 5, 45, **kw)
        assert got.tolist() == reference_line_costs((8, 2), 5, 45, **kw)
        if kw.get("n", 0) > BIG:
            assert len(calls) > 2 and all(sum(c) <= 700 for _, c in calls)
            assert {r for r, _ in calls} == ({_QUAD} if "root_axis" not in kw else {_KD_V, _KD_H})

    def test_mixed_sizes_in_one_batch(self):
        trees = []
        for j, n in enumerate((0, 5, BIG + 1, 40, 2000, 0, BIG, 3000)):
            xs, ys = _tree(n, j)
            trees.append((xs, ys, float(np.random.default_rng(j).random())))
        for rule in sorted(RULES):
            assert _batched(trees, rule) == [_slice_cost(x, y, s, rule) for x, y, s in trees]


def _oracle_block_mean_profile(spec, lo, hi):
    out = np.empty((hi - lo, len(spec.s_grid)))
    for i, xy in enumerate(harness._uniform_samples((spec.seed,), lo, hi, spec.sizes[0])):
        prof = quadtree.profile_xy(*xy)
        out[i] = [prof.eval(float(s)) for s in spec.s_grid]
    return out


def _oracle_block_coupling(spec, lo, hi):
    out = np.empty((hi - lo, 2))
    for i, rng in enumerate(_streams((spec.seed,), lo, hi)):
        xs, ys = quadtree.sample_extension_xy(spec.t, spec.eps, rng)
        out[i] = quadtree.coupled_extension_cost(xs, ys, spec.eps, spec.s)
    return out


class TestLargeTreeBlocks:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_mean_profile(self, threads):
        spec = ExperimentSpec(kind="mean-profile", sizes=(1500,), replications=300, seed=3,
                              s_grid=(0.0, 0.1, 0.5, 0.9, 1.0))
        got = np.concatenate(harness.run_blocks(harness._block_worker, spec, 300, threads))
        assert np.array_equal(got, _oracle_block_mean_profile(spec, 0, 300))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_coupling(self, threads):
        spec = ExperimentSpec(kind="coupling", t=1500.0, eps=0.1, s=0.3, replications=300, seed=5)
        got = np.concatenate(harness.run_blocks(harness._block_worker, spec, 300, threads))
        assert np.array_equal(got[:, :2], _oracle_block_coupling(spec, 0, 300))

    @pytest.mark.parametrize("args", [
        ["--kind", "mean-profile", "--n", "1500", "--s-grid", "0", "0.3", "1"],
        ["--kind", "kd-mean", "--n", "1500"],
        ["--kind", "coupling", "--t", "1500", "--eps", "0.1", "--s", "0.3"],
    ], ids=["mean-profile", "kd-mean", "coupling"])
    def test_output_bytes_across_threads(self, args, capsys):
        outs = []
        for threads in ("1", "2"):
            code = main(["--seed", "4", "--threads", threads, "experiment", *args,
                         "--replications", "300"])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
