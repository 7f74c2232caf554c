"""The budgeted crossing-box kernel, the batched diagnostics kernel and
apply_K's cached geometry against the code they replaced.

``reference_expand`` is the breadth-first expansion ``_expand_crossing`` that
held all reps x 2^n boxes at once, ``reference_diagnostics`` the per-environment
enumeration of all 4^n cells by heap code, and ``reference_apply_k`` the
per-grid-point loop over ``_edge_integral``; all are kept verbatim (with their
helpers) as the reference oracles.  Every comparison is bit for bit.  Shrinking
``_BOX_BUDGET`` makes small depths run the split-level, multi-chunk and
multi-batch paths.
"""

import numpy as np
import pytest

from pmquad import limitproc, moments
from pmquad.errors import CapExceededError
from pmquad.limitproc import (
    crossing_boxes,
    diagnostics,
    diagnostics_many,
    env_seed,
    labels_at,
    simulate_many,
    simulate_path,
)
from pmquad.moments import GridFunction, apply_K, make_grid
from pmquad.specfun import beta_exponent, beta_fn

from peak_rss import measure

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_ROOT_CODE = 1
_GOLDEN3 = (3 * _GOLDEN) & _M64
_MAX_POINTWISE_DEPTH = 24


def _mix64_arr(x):
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(31)
    return x


def _to_unit(z: np.ndarray) -> np.ndarray:
    # 53-bit mantissa offset by half a step: values stay in the open interval
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _pairwise_fold(a: np.ndarray) -> np.ndarray:
    """Sum along the last axis by repeated halving: order-fixed, shape-stable."""
    while a.shape[-1] > 1:
        a = a[..., 0::2] + a[..., 1::2]
    return a[..., 0]


def _label_uniforms(state: np.ndarray, family: int):
    return _to_unit(_mix64_arr(state + np.uint64((family * _GOLDEN) & _M64)))


def reference_expand(n: int, s: float, seeds: np.ndarray, two_d: bool,
                     return_boxes: bool = False):
    """Z_n(s) for a batch of environments given as a (R,) array of seeds."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"query position must lie in [0, 1], got {s!r}")
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if n > _MAX_POINTWISE_DEPTH:
        raise CapExceededError(f"depth {n} exceeds cap {_MAX_POINTWISE_DEPTH}")
    b = beta_exponent()
    reps = seeds.shape[0]
    seeds_col = seeds.reshape(reps, 1).astype(np.uint64)
    codes = np.full((reps, 1), _ROOT_CODE, dtype=np.uint64)
    log_area = np.zeros((reps, 1))
    u = np.full((reps, 1), float(s))
    for _ in range(n):
        state = codes * np.uint64(_GOLDEN3) + seeds_col
        U = _label_uniforms(state, 0)
        V = _label_uniforms(state, 1)
        left = u < U
        width = np.where(left, U, 1.0 - U)
        if two_d:
            W = _label_uniforms(state, 2)
            h_bottom = np.where(left, V, W)
        else:
            h_bottom = V
        u_next = np.where(left, u / U, (u - U) / (1.0 - U))
        base = codes * np.uint64(4) + np.where(left, 0, 2).astype(np.uint64)
        m = u.shape[1]
        # children of box j sit at columns 2j (bottom) and 2j+1 (top)
        codes_next = np.empty((reps, 2 * m), dtype=np.uint64)
        codes_next[:, 0::2] = base
        codes_next[:, 1::2] = base + np.uint64(1)
        la_next = np.empty((reps, 2 * m))
        la_next[:, 0::2] = log_area + np.log(width * h_bottom)
        la_next[:, 1::2] = log_area + np.log(width * (1.0 - h_bottom))
        u2 = np.empty((reps, 2 * m))
        u2[:, 0::2] = u_next
        u2[:, 1::2] = u_next
        codes, log_area, u = codes_next, la_next, u2
    if return_boxes:
        return log_area, u
    terms = np.exp(b * log_area) * (u * (1.0 - u)) ** (b / 2.0)
    return _pairwise_fold(terms)


def reference_many(n, s, master_seed, reps, two_d=False, start=0):
    seeds = np.array([env_seed(master_seed, start + r) for r in range(reps)], dtype=np.uint64)
    out = np.empty(reps)
    for lo in range(0, reps, 256):
        out[lo:lo + 256] = reference_expand(n, s, seeds[lo:lo + 256], two_d)
    return out


def reference_point(n, s, seed, two_d=False):
    return float(reference_expand(n, s, np.array([seed], dtype=np.uint64), two_d)[0])


def reference_diagnostics(n: int, seed: int):
    """(W_n, L_n) of one environment: every cell's code, x-offset and width, in
    interleaved order (the children of code c are codes 4c + 0 .. 4c + 3)."""
    seeds_col = np.array([[seed & _M64]], dtype=np.uint64)
    codes = np.array([_ROOT_CODE], dtype=np.uint64)
    x_lo = np.array([0.0])
    width = np.array([1.0])
    boundaries = [np.array([0.0, 1.0])]
    for _ in range(n):
        U = _label_uniforms(codes.reshape(1, -1) * np.uint64(_GOLDEN3) + seeds_col, 0)[0]
        split = x_lo + width * U
        boundaries.append(split)
        m = codes.shape[0]
        codes_next = np.empty(4 * m, dtype=np.uint64)
        base = codes * np.uint64(4)
        for j in range(4):
            codes_next[j::4] = base + np.uint64(j)
        x_next = np.empty(4 * m)
        w_next = np.empty(4 * m)
        w_left = width * U
        x_next[0::4] = x_lo
        x_next[1::4] = x_lo
        x_next[2::4] = split
        x_next[3::4] = split
        w_next[0::4] = w_left
        w_next[1::4] = w_left
        w_next[2::4] = width - w_left
        w_next[3::4] = width - w_left
        codes, x_lo, width = codes_next, x_next, w_next
    wn = float(np.max(width))
    all_b = np.unique(np.concatenate(boundaries))
    ln = float(np.min(np.diff(all_b))) if all_b.size > 1 else 1.0
    return wn, ln


def _edge_integral(sigma: float, grid: np.ndarray, vals: np.ndarray, b: float) -> float:
    """Exact value of int_sigma^1 x^{2b} f(sigma/x) dx for piecewise-linear f."""
    if sigma >= 1.0:
        return 0.0
    if sigma <= 0.0:
        return vals[0] / (2.0 * b + 1.0)
    j0 = np.searchsorted(grid, sigma, side="right")
    us = np.concatenate(([sigma], grid[j0:]))
    if us[-1] < 1.0:
        us = np.concatenate((us, [1.0]))
    fv = np.interp(us, grid, vals)
    ua, ub = us[:-1], us[1:]
    fa, fb = fv[:-1], fv[1:]
    slope = (fb - fa) / (ub - ua)
    a0 = fa - slope * ua
    xhi = sigma / ua  # u decreases as x increases
    xlo = sigma / ub
    seg = a0 * (xhi ** (2.0 * b + 1.0) - xlo ** (2.0 * b + 1.0)) / (2.0 * b + 1.0)
    seg += slope * sigma * (xhi ** (2.0 * b) - xlo ** (2.0 * b)) / (2.0 * b)
    return float(np.sum(seg))


def reference_apply_k(f: GridFunction) -> GridFunction:
    b = beta_exponent()
    grid, vals = f.grid, f.values
    inhom = 2.0 * beta_fn(b + 1.0, b + 1.0) / (b + 1.0) * (grid * (1.0 - grid)) ** b
    scale = 2.0 / (2.0 * b + 1.0)
    out = np.empty_like(vals)
    for i, s in enumerate(grid):
        out[i] = scale * (
            _edge_integral(s, grid, vals, b) + _edge_integral(1.0 - s, grid, vals, b)
        ) + inhom[i]
    return GridFunction(grid=grid, values=out)


ENV = 987654321
GRID = make_grid(512, extra=(0.4,))
# query positions: the ends, the middle, and values taken from a grid
POSITIONS = (0.0, -0.0, 1.0, 0.5, float(GRID[137]), float(1.0 - GRID[400]), 0.4)


@pytest.fixture(params=[None, 2, 8, 64], ids=["default", "budget2", "budget8", "budget64"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(limitproc, "_BOX_BUDGET", request.param)
    return request.param


class TestSimulateMany:
    @pytest.mark.parametrize("two_d", [False, True])
    @pytest.mark.parametrize("depth", range(13))
    def test_default_budget(self, depth, two_d):
        for s in POSITIONS:
            got = simulate_many(depth, s, 4242, 37, two_d=two_d, start=5)
            assert np.array_equal(got, reference_many(depth, s, 4242, 37, two_d, start=5))

    @pytest.mark.parametrize("two_d", [False, True])
    def test_small_budgets(self, budget, two_d):
        for depth in (0, 1, 2, 3, 4, 6, 9):
            for s in POSITIONS:
                got = simulate_many(depth, s, 77, 3, two_d=two_d, start=11)
                assert np.array_equal(got, reference_many(depth, s, 77, 3, two_d, start=11))

    def test_rows_span_batches(self, monkeypatch):
        # 8 rows per batch at depth 3: 21 rows leave a partial last batch
        monkeypatch.setattr(limitproc, "_BOX_BUDGET", 64)
        for two_d in (False, True):
            got = simulate_many(3, 0.3, 5, 21, two_d=two_d, start=1000)
            assert np.array_equal(got, reference_many(3, 0.3, 5, 21, two_d, start=1000))

    def test_more_reps_than_one_old_chunk(self):
        got = simulate_many(6, 0.3, 9, 600, start=17)
        assert np.array_equal(got, reference_many(6, 0.3, 9, 600, start=17))


class TestSingleEnvironment:
    def test_path(self, budget):
        grid = np.concatenate((np.linspace(0.0, 1.0, 23), GRID[130:140]))
        for two_d in (False, True):
            for depth in (0, 1, 5, 8):
                want = [reference_point(depth, float(s), ENV, two_d) for s in grid]
                assert np.array_equal(simulate_path(depth, grid, ENV, two_d), want)

    def test_pointwise(self, budget):
        for depth in (0, 3, 7, 10):
            for s in POSITIONS:
                for two_d in (False, True):
                    assert simulate_path(depth, [s], ENV, two_d)[0] == reference_point(
                        depth, s, ENV, two_d)

    def test_crossing_boxes(self, budget):
        seeds = np.array([ENV], dtype=np.uint64)
        for two_d in (False, True):
            for depth in (0, 1, 2, 7):
                for s in (0.0, 0.37, 1.0):
                    areas, rel = crossing_boxes(depth, s, ENV, two_d)
                    la, u = reference_expand(depth, s, seeds, two_d, return_boxes=True)
                    assert np.array_equal(areas, np.exp(la[0]))
                    assert np.array_equal(rel, u[0])


def _tie_queries(seed: int) -> list:
    """Query positions where a crossing box's relative position equals its
    vertical label U exactly, so the box takes the right branch at
    u - U = +0.0: the root's U, and a split of each depth-1 box on the line
    x = U0 that reaches its label U1 exactly (left: s / U0, right:
    (s - U0) / (1 - U0))."""
    u0 = labels_at(seed, ())[0]
    queries = [u0]
    for digit in (1, 3):  # the bottom children of the root's two branches
        u1 = labels_at(seed, (digit,))[0]
        s = u0 * u1 if digit == 1 else u0 + (1.0 - u0) * u1
        if (s / u0 if digit == 1 else (s - u0) / (1.0 - u0)) == u1:
            queries.append(s)
    return queries


class TestTieQueries:
    # environment 2 of master seed 4242 has an exact depth-2 tie on either side
    SEED = env_seed(4242, 2)

    def test_both_depth_two_splits_tie(self):
        assert len(_tie_queries(self.SEED)) == 3

    @pytest.mark.parametrize("two_d", [False, True], ids=["quad", "kd"])
    def test_against_the_reference(self, two_d):
        seeds = np.array([self.SEED], dtype=np.uint64)
        for s in _tie_queries(self.SEED):
            for depth in (0, 1, 2, 3, 8):
                la, u = reference_expand(depth, s, seeds, two_d, return_boxes=True)
                areas, rel = crossing_boxes(depth, s, self.SEED, two_d)
                assert np.array_equal(areas, np.exp(la[0])) and np.array_equal(rel, u[0])
                want = reference_many(depth, s, 4242, 3, two_d, start=2)
                assert np.array_equal(simulate_many(depth, s, 4242, 3, two_d, start=2), want)
            for depth in (2, 12):
                grid = [s, 0.5, s]
                want = [reference_point(depth, x, self.SEED, two_d) for x in grid]
                assert np.array_equal(simulate_path(depth, grid, self.SEED, two_d), want)


def _chunking(budget):
    """(top level t, rows per chunk, log2 budget) of the expansion under
    ``budget``: a chunk's boxes at level t fill one budget."""
    log = budget.bit_length() - 1
    return log // 2, budget >> (log // 2), log


class TestChunkBoundaries:
    """Rows and depths on either side of the chunk, the top level, the row
    batch and the split level, bit for bit against the reference."""

    @pytest.mark.parametrize("two_d", [False, True])
    def test_rows_around_one_chunk(self, budget, two_d):
        top, chunk, log = _chunking(budget or limitproc._BOX_BUDGET)
        depths = {0, 1, top, top + 1}
        if budget:  # the default budget's split level is too deep for 257 rows
            depths |= {log, log + 1}
        # chunk + chunk // 2 - 1 rows leave a partial bottom batch in the last chunk
        for reps in sorted({chunk - 1, chunk, chunk + 1, chunk + chunk // 2 - 1} - {0}):
            for depth in sorted(depths):
                for s in (0.0, 0.4, 1.0):
                    got = simulate_many(depth, s, 31, reps, two_d=two_d, start=7)
                    want = reference_many(depth, s, 31, reps, two_d, start=7)
                    assert np.array_equal(got, want), (reps, depth, s)

    @pytest.mark.parametrize("log_budget", [5, 9, 10])
    def test_budgets_where_chunk_and_batch_differ(self, monkeypatch, log_budget):
        monkeypatch.setattr(limitproc, "_BOX_BUDGET", 1 << log_budget)
        top, chunk, log = _chunking(1 << log_budget)
        for two_d in (False, True):
            for depth in (top + 1, log - 1, log, log + 1):
                # a bottom batch holds (1 << log - depth) rows, fewer than a
                # chunk; past the split level a chunk is one row
                reps = 2 * chunk + 3 if depth <= log else 3
                got = simulate_many(depth, 0.4, 8, reps, two_d=two_d, start=2)
                assert np.array_equal(got, reference_many(depth, 0.4, 8, reps, two_d, start=2))

    @pytest.mark.parametrize("two_d", [False, True])
    def test_default_split_level(self, two_d):
        # depth 16 fills the budget with one row; depth 17 splits each row in two
        for depth in (16, 17):
            got = simulate_many(depth, 0.4, 2024, 3, two_d=two_d, start=1)
            # one reference row at a time keeps this process's RSS low for the
            # RSS tests below, which count it in their children
            want = [reference_many(depth, 0.4, 2024, 1, two_d, start=r)[0] for r in (1, 2, 3)]
            assert np.array_equal(got, want)

    def test_path_longer_than_a_chunk(self, budget):
        top, chunk, log = _chunking(budget or limitproc._BOX_BUDGET)
        grid = np.concatenate((np.linspace(0.0, 1.0, chunk + chunk // 2 + 1), GRID[200:203]))
        for two_d in (False, True):
            for depth in sorted({0, top, top + 1, min(log, 9)}):
                want = [reference_point(depth, float(s), ENV, two_d) for s in grid]
                assert np.array_equal(simulate_path(depth, grid, ENV, two_d), want)


@pytest.mark.parametrize("log_budget", range(4, 17))
def test_no_expansion_step_exceeds_the_budget(monkeypatch, log_budget):
    # every box array is made by one _children call, so its output size bounds
    # what one expansion step holds.  Past depth 2 log_budget one row's split
    # level alone outgrows the budget (the depth cap 24 keeps the default
    # budget 2^16 far from that), and past 2^8 subtrees per row the split path
    # only repeats itself, so those depths are left out.
    budget = 1 << log_budget
    monkeypatch.setattr(limitproc, "_BOX_BUDGET", budget)
    children = limitproc._children
    sizes = []

    def counted(state, *args):
        sizes.append(2 * state.size)
        return children(state, *args)

    monkeypatch.setattr(limitproc, "_children", counted)
    top = _chunking(budget)[0]
    for depth in range(min(20, 2 * log_budget, log_budget + 8) + 1):
        # one row more than fills a chunk's top level, or, where a chunk is
        # costly to finish, than fills one bottom batch: the bound is reached
        if depth <= top + 1:
            reps = (budget >> min(depth, top)) + 1
        else:
            reps = max(1, budget >> depth) + 1
        sizes.clear()
        simulate_many(depth, 0.4, 6, reps)
        assert max(sizes, default=0) == (budget if depth else 0), (depth, reps)


class TestBatchedKernelEdges:
    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_bad_grid_value_rejected_before_any_expansion(self, monkeypatch, bad):
        def expand(*args, **kwargs):
            raise AssertionError("expansion ran before the grid was checked")

        monkeypatch.setattr(limitproc, "_children", expand)
        grid = [0.1, 0.5, bad]
        with pytest.raises(ValueError, match=r"query position must lie in \[0, 1\], got"):
            simulate_path(4, grid, ENV)
        with pytest.raises(ValueError, match=r"query position must lie in \[0, 1\]"):
            simulate_many(4, bad, 1, 3)

    def test_caps_fire_before_any_work(self, monkeypatch):
        def expand(*args, **kwargs):
            raise AssertionError("expansion ran past a cap")

        monkeypatch.setattr(limitproc, "_children", expand)
        with pytest.raises(CapExceededError, match="grid size"):
            simulate_path(2, np.linspace(0.0, 1.0, limitproc._MAX_PATH_GRID + 1), ENV)
        with pytest.raises(CapExceededError, match="depth 25"):
            simulate_path(25, [0.5], ENV)
        with pytest.raises(CapExceededError, match="depth 25"):
            simulate_many(25, 0.5, 1, 2)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            simulate_path(-1, [0.5], ENV)

    def test_empty_inputs(self):
        assert simulate_path(6, [], ENV).shape == (0,)
        assert simulate_many(6, 0.5, 3, 0).shape == (0,)
        assert simulate_many(6, 0.5, 3, 0, two_d=True).shape == (0,)


def test_labels_at_heap_code():
    for seed in (0, 3, 2**64 - 1):
        for address in ((), (1,), (4,), (2, 3), (4, 1, 3, 2, 2, 4), (3,) * 31):
            code = _ROOT_CODE
            for d in address:
                code = 4 * code + d - 1
            state = np.array([code], dtype=np.uint64) * np.uint64(_GOLDEN3) + np.uint64(seed)
            want = tuple(float(_label_uniforms(state, f)[0]) for f in range(3))
            assert labels_at(seed, address) == want


class TestDiagnostics:
    @pytest.mark.parametrize("depth", range(8))
    def test_one_environment(self, budget, depth):
        for seed in (0, 3, 2**64 - 1):
            assert diagnostics(depth, seed) == reference_diagnostics(depth, seed)

    @pytest.mark.parametrize("depth", range(8))
    def test_many_environments(self, budget, depth):
        # under budget64, 21 rows span several batches of 64 >> 2n rows, and
        # from depth 4 on each batch is one row that alone exceeds the budget
        wn, ln = diagnostics_many(depth, 2024, 21, start=300)
        want = [reference_diagnostics(depth, env_seed(2024, 300 + r)) for r in range(21)]
        assert np.array_equal(wn, [w for w, _ in want])
        assert np.array_equal(ln, [l for _, l in want])

    def test_empty_and_caps(self, monkeypatch):
        wn, ln = diagnostics_many(5, 1, 0)
        assert wn.shape == ln.shape == (0,)
        with pytest.raises(ValueError, match="reps must be >= 0"):
            diagnostics_many(5, 1, -1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            diagnostics_many(-1, 1, 3)
        monkeypatch.setattr(limitproc, "_label_uniforms", None)  # no work past the cap
        with pytest.raises(CapExceededError, match="depth 13"):
            diagnostics_many(13, 1, 3)


def _peak_rss_mib(code: str) -> float:
    """Peak RSS of a fresh interpreter running ``code``, started from the
    stdlib-only ``peak_rss.py`` so that pytest's own pages do not count."""
    return measure("-c", code)["maxrss_kib"] / 1024  # MiB (ru_maxrss is in KiB on Linux)


def test_depth_12_diagnostics_memory():
    # the per-environment heap-code enumeration peaked at about 695 MiB
    code = (
        "from pmquad.limitproc import diagnostics_many\n"
        "wn, ln = diagnostics_many(12, 0, 1)\n"
        "assert 0.0 < ln[0] < wn[0] < 1.0\n"
    )
    assert _peak_rss_mib(code) < 450


def test_depth_20_memory_stays_within_the_box_budget():
    # the full breadth-first expansion needed about 380 MiB here
    code = (
        "import numpy as np\n"
        "from pmquad.limitproc import simulate_many\n"
        "v = simulate_many(20, 0.4, 2024, 4)\n"
        "assert v.shape == (4,) and np.all(np.isfinite(v))\n"
    )
    assert _peak_rss_mib(code) < 150


@pytest.mark.parametrize("grid", [make_grid(), make_grid(300, graded=True),
                                  make_grid(128, extra=(0.4, 0.613))],
                         ids=["uniform", "graded", "extra"])
class TestApplyK:
    def test_one_application(self, grid):
        rng = np.random.default_rng(3)
        f = GridFunction(grid=grid, values=rng.random(grid.size))
        assert np.array_equal(apply_K(f).values, reference_apply_k(f).values)

    def test_fourteenth_iterate(self, grid, monkeypatch):
        b = beta_exponent()
        f_ref = GridFunction(grid=grid, values=(grid * (1.0 - grid)) ** b)
        for _ in range(14):
            f_ref = reference_apply_k(f_ref)
        assert np.array_equal(moments.second_moment_iterates(14, grid).values, f_ref.values)
        # rows in many small blocks, more than the geometry cache holds
        monkeypatch.setattr(moments, "_K_BLOCK", 3 * grid.size)
        assert np.array_equal(moments.second_moment_iterates(14, grid).values, f_ref.values)


def _reference_iterates(n, grid):
    f = GridFunction(grid=grid, values=(grid * (1.0 - grid)) ** beta_exponent())
    for _ in range(n):
        f = reference_apply_k(f)
    return f.values


class TestGeometryCache:
    """apply_K keeps one grid's geometry: the longest prefix of its blocks
    that fits the byte budget.  Iterations after the first reuse those
    blocks and rebuild the rest, with the same bits as the per-grid-point
    loop."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (lo, hi) of every block _k_geometry builds, on an empty cache."""
        calls, build = [], moments._k_geometry

        def spy(grid_bytes, lo, hi, *args, **kwargs):
            calls.append((lo, hi))
            return build(grid_bytes, lo, hi, *args, **kwargs)

        monkeypatch.setattr(moments, "_k_geometry", spy)
        moments._kept_geometry.cache_clear()
        yield calls
        moments._kept_geometry.cache_clear()  # no prefix kept under a patched budget

    @staticmethod
    def _blocks(grid):
        step = moments._K_BLOCK // grid.size
        return [(lo, min(lo + step, 2 * grid.size)) for lo in range(0, 2 * grid.size, step)]

    def _kept(self, grid):
        return moments._kept_geometry(grid.tobytes(), moments._K_BLOCK // grid.size)

    def test_limit_moments_grid_keeps_its_hits(self, builds):
        grid = make_grid(512, extra=(0.4,))
        got = moments.second_moment_iterates(14, grid).values
        assert moments._kept_geometry.cache_info()[:2] == (13, 1)
        assert builds == self._blocks(grid) and len(builds) == 9
        assert len(self._kept(grid)) == 9
        assert np.array_equal(got, _reference_iterates(14, grid))

    def test_grid_of_more_than_16_blocks_hits(self, builds):
        grid = make_grid(1000)
        got = moments.second_moment_iterates(3, grid).values
        assert moments._kept_geometry.cache_info()[:2] == (2, 1)
        assert builds == self._blocks(grid) and len(builds) == 31
        assert len(self._kept(grid)) == 31
        assert np.array_equal(got, _reference_iterates(3, grid))

    def test_blocks_beyond_the_budget_are_built_each_time(self, builds, monkeypatch):
        grid = make_grid(1000)
        blocks = self._blocks(grid)
        first = [moments._k_geometry(grid.tobytes(), lo, hi) for lo, hi in blocks[:3]]
        budget = sum(v.nbytes for geo in first for v in geo if isinstance(v, np.ndarray))
        monkeypatch.setattr(moments, "_K_CACHE_BYTES", budget)
        del builds[:]
        got = moments.second_moment_iterates(3, grid).values
        # the first call builds the fourth block twice: once to find it does not fit
        rest = blocks[3:]
        assert builds == blocks[:4] + rest + rest + rest
        assert len(self._kept(grid)) == 3
        assert np.array_equal(got, _reference_iterates(3, grid))

    def test_switching_grids_rebuilds(self, builds):
        small, large = make_grid(512, extra=(0.4,)), make_grid(1000)
        for grid in (small, large, small):
            del builds[:]
            got = moments.second_moment_iterates(2, grid).values
            assert builds == self._blocks(grid)
            assert np.array_equal(got, _reference_iterates(2, grid))
        assert moments._kept_geometry.cache_info()[:2] == (3, 3)


def _mirrored_grid():
    """A grid whose extra points are 1 - g[i] for grid points g[i], so that
    those mirror rows' sigma falls exactly on a grid point."""
    g = make_grid(200)
    return make_grid(200, extra=1.0 - g[[3, 50, 101, 123, 190]])


@pytest.mark.parametrize("grid", [make_grid(512, extra=(0.4,)), make_grid(1000, graded=True),
                                  make_grid(62), _mirrored_grid()],
                         ids=["limit-moments", "graded-1000", "minimum", "mirrored"])
class TestApplyKAgainstTheLoop:
    """apply_K's kept blocks, its rebuilt blocks (under an empty geometry
    budget) and small blocks all give the per-grid-point loop's bits."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        moments._kept_geometry.cache_clear()
        yield
        moments._kept_geometry.cache_clear()  # no prefix kept under a patched budget

    @staticmethod
    def _f(grid):
        return GridFunction(grid=grid, values=np.random.default_rng(33).random(grid.size))

    def test_kept_blocks(self, grid):
        f = self._f(grid)
        want = reference_apply_k(f).values
        assert np.array_equal(apply_K(f).values, want)
        assert np.array_equal(apply_K(f).values, want)  # from the kept geometry

    def test_rebuilt_blocks(self, grid, monkeypatch):
        monkeypatch.setattr(moments, "_K_CACHE_BYTES", 0)
        f = self._f(grid)
        assert moments._kept_geometry(grid.tobytes(), moments._K_BLOCK // grid.size) == ()
        assert np.array_equal(apply_K(f).values, reference_apply_k(f).values)

    @pytest.mark.parametrize("budget", [None, 0])
    def test_small_blocks(self, grid, budget, monkeypatch):
        monkeypatch.setattr(moments, "_K_BLOCK", 5 * grid.size)
        if budget is not None:
            monkeypatch.setattr(moments, "_K_CACHE_BYTES", budget)
        f = self._f(grid)
        assert np.array_equal(apply_K(f).values, reference_apply_k(f).values)


def test_mirrored_grid_puts_sigma_on_grid_points():
    grid = _mirrored_grid()
    assert np.isin(1.0 - grid, grid).sum() >= 2 + 5  # the two ends and the mirrors
