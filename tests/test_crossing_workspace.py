"""The crossing-box kernel's workspace against the allocating chain it
replaced, and the page faults that the workspace saves.

The reference below is the kernel as it stood before every level wrote into
one reused workspace: ``_children`` -> ``_descend`` -> ``_leaves`` ->
``_box_sums``, with ``_crossing_sums`` and ``crossing_boxes`` on top, kept
verbatim (with their helpers), except that the budget and the input check
are read from ``limitproc``, so that a monkeypatched budget reaches both
sides.  Every comparison is bit for bit.
"""

import numpy as np
import pytest

from pmquad import limitproc
from pmquad.limitproc import crossing_boxes as workspace_boxes
from pmquad.limitproc import simulate_many, simulate_path
from pmquad.specfun import beta_exponent

from peak_rss import measure

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_GOLDEN3 = (3 * _GOLDEN) & _M64
_TWO_GOLDEN3 = (2 * _GOLDEN3) & _M64


def _mix64_arr(x: np.ndarray, t=None) -> np.ndarray:
    """splitmix64 finalizer of a uint64 array, in place; ``t`` is scratch of
    x's shape, allocated when not given."""
    t = np.right_shift(x, np.uint64(30), out=t)
    x ^= t
    x *= np.uint64(_MIX_A)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(_MIX_B)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def _label_uniforms(state: np.ndarray, family: int, z=None, t=None):
    """Uniform in (0, 1) from the splitmix64 finalizer of a box's counter state.

    The root's state is seed + G3, and child j (0..3) of a box with state x
    has state 4 x - 3 seed + j G3 (mod 2^64): that is c G3 + seed, for c the
    box's base-4 heap code (root 1, children of c are 4c + j).  Family f
    hashes state + f GOLDEN = (3 c + f) GOLDEN + seed; the counter 3 c + f is
    injective over (address, family) pairs, so no two labels in a run ever
    share a generator state.  The hash runs in place in the uint64 scratch
    arrays ``z`` and ``t`` of state's shape, allocated when not given.
    """
    z = _mix64_arr(np.add(state, np.uint64((family * _GOLDEN) & _M64), out=z), t)
    # 53-bit mantissa offset by half a step: values stay in the open interval
    z >>= np.uint64(11)
    out = np.add(z.view(np.int64), 0.5)  # < 2^53: exact either way
    out *= 2.0**-53
    return out


def _children(state, log_area, u, two_d: bool):
    """Split each box at its labels: the children's log-areas (m, 2, D*H),
    their relative position (m, 1, D*H) and the left-branch mask (m, D, H)."""
    m, d, w = state.shape
    z = np.empty_like(state)
    t = np.empty_like(state)
    U = _label_uniforms(state, 0, z=z, t=t)
    h_bottom = _label_uniforms(state, 1, z=z, t=t)
    left = u < U
    # branch selection by blending, exact for finite values: x * 1 + y * 0 == x
    take_left = left.astype(np.float64)
    take_right = 1.0 - take_left
    if two_d:
        W = _label_uniforms(state, 2, z=z, t=t)
        h_bottom *= take_left
        W *= take_right
        h_bottom += W
    width = 1.0 - U
    u_next = u - U
    u_next /= width
    u_next *= take_right
    u_left = u / U
    u_left *= take_left
    u_next += u_left
    width *= take_right
    U *= take_left
    width += U
    la = np.empty((m, 2, d, w))
    np.multiply(width, h_bottom, out=la[:, 0])
    np.subtract(1.0, h_bottom, out=la[:, 1])
    la[:, 1] *= width
    np.log(la, out=la)
    la += log_area[:, None]
    return la.reshape(m, 2, d * w), u_next.reshape(m, 1, d * w), left


def _descend(state, log_area, u, seed_off, levels: int, two_d: bool):
    """The boxes ``levels`` levels further down.  ``seed_off`` (m, 1) is
    -3 seed mod 2^64: a child's counter state is 4 state - 3 seed + digit G3,
    with digit its last base-4 address digit."""
    for _ in range(levels):
        m = state.shape[0]
        log_area, u_next, left = _children(state, log_area, u, two_d)
        nxt = np.empty(log_area.shape, dtype=np.uint64)
        bottom = nxt[:, 0]
        np.multiply(state.reshape(m, -1), np.uint64(4), out=bottom)
        bottom += seed_off
        bottom += np.multiply(~left.reshape(m, -1), np.uint64(_TWO_GOLDEN3))
        np.add(bottom, np.uint64(_GOLDEN3), out=nxt[:, 1])
        state, u = nxt, u_next
    return state, log_area, u


def _leaves(state, log_area, u, seed_off, levels: int, two_d: bool):
    """(log-area, relative position) of the boxes ``levels`` levels down."""
    if levels == 0:
        return log_area, u
    state, log_area, u = _descend(state, log_area, u, seed_off, levels - 1, two_d)
    return _children(state, log_area, u, two_d)[:2]


def _roots(s, seeds: np.ndarray):
    """Root boxes of a batch: one per row, with query position s[r] in the
    environment of seed seeds[r]."""
    seeds = seeds.astype(np.uint64).reshape(-1, 1, 1)
    m = seeds.shape[0]
    return (seeds + np.uint64(_GOLDEN3), np.zeros((m, 1, 1)),
            np.array(s, dtype=float).reshape(m, 1, 1),
            seeds.reshape(m, 1) * np.uint64(_M64 - 2))


def _pairwise_fold(a: np.ndarray) -> np.ndarray:
    """Sum along the last axis by repeated halving: order-fixed, shape-stable.

    Column j meets column j + half, which in halves order is its sibling."""
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        a = a[..., :half] + a[..., half:]
    return a[..., 0]


def _box_sums(log_area, u) -> np.ndarray:
    """Per row, the fold of area^beta * h(u) over the row's boxes."""
    b = beta_exponent()
    m = log_area.shape[0]
    g = (u * (1.0 - u)) ** (b / 2.0)
    log_area *= b
    terms = np.exp(log_area, out=log_area)
    terms *= g
    return _pairwise_fold(terms.reshape(m, -1))


def _crossing_sums(n: int, s, seeds: np.ndarray, two_d: bool) -> np.ndarray:
    """Z_n(s[r]) in the environment of seed seeds[r], for every row r.

    ``s`` is one position or one per row.  The work runs in three steps:

    - Top levels per chunk: a chunk of rows is expanded together down to a
      top level t, where the chunk's boxes fill one _BOX_BUDGET (256 rows to
      level 8 at the default budget), so no level runs on a narrow array
      once per small batch.
    - Bottom levels per row batch: at depth n <= log2(_BOX_BUDGET), each
      slice of _BOX_BUDGET >> n rows of the top level is finished down to
      level n in the rows' own (m, D, H) layout and folded per row.
    - Split path for deeper n: a chunk is one row, t is the split level
      where one subtree holds _BOX_BUDGET boxes, and each subtree rooted
      there is finished and folded on its own; the row's 2^t partial sums
      are then folded again.

    The labels depend only on (seed, address) and each row's boxes keep
    their halves order, so the order of the work changes no bit of the
    result.
    """
    s = np.broadcast_to(limitproc._check_depth_query(n, s), seeds.shape)
    log_budget = limitproc._BOX_BUDGET.bit_length() - 1
    if n > log_budget:  # one row at a time, split where a subtree fills the budget
        top, chunk = n - log_budget, 1
    else:
        # a chunk fills the budget at level t; with t half the budget's levels,
        # top and bottom arrays alike hold about sqrt(_BOX_BUDGET) boxes or more
        top = min(n, log_budget // 2)
        chunk = limitproc._BOX_BUDGET >> top
    batch = max(1, limitproc._BOX_BUDGET >> n)
    out = np.empty(seeds.shape[0])
    for lo in range(0, seeds.shape[0], chunk):
        state, log_area, u, seed_off = _roots(s[lo:lo + chunk], seeds[lo:lo + chunk])
        m = state.shape[0]
        state, log_area, u = _descend(state, log_area, u, seed_off, top, two_d)
        if n > log_budget:  # every box at the split level roots one subtree
            r = state.size
            u = np.broadcast_to(u, state.shape).reshape(r, 1, 1)
            state = state.reshape(r, 1, 1)
            log_area = log_area.reshape(r, 1, 1)
            seed_off = np.broadcast_to(seed_off, (m, r // m)).reshape(r, 1)
        sums = np.empty(state.shape[0])
        for j in range(0, state.shape[0], batch):
            k = slice(j, j + batch)
            sums[k] = _box_sums(*_leaves(state[k], log_area[k], u[k], seed_off[k],
                                         n - top, two_d))
        out[lo:lo + m] = _pairwise_fold(sums.reshape(m, -1))
    return out


def crossing_boxes(n: int, s: float, seed: int, two_d: bool = False):
    """(areas, relative positions) of the level-n boxes meeting x = s.

    Introspection view of the same expansion the simulators run, in
    breadth-first order (the children of box j are boxes 2j and 2j+1):
    exactly 2^n boxes, areas multiplicative along each branch, and
    sum(areas^beta * h(u)) reproduces the simulated value.
    """
    s = limitproc._check_depth_query(n, s)
    seeds = np.array([seed & _M64], dtype=np.uint64)
    log_area, u = _leaves(*_roots(s, seeds), n, two_d)
    u = np.broadcast_to(u, log_area.shape)
    # halves order to breadth-first order: reverse the n path bits
    order = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        order = np.concatenate((2 * order, 2 * order + 1))
    return np.exp(log_area.reshape(-1)[order]), u.reshape(-1)[order]


ENV = 987654321
BUDGETS = (None, 1 << 4, 1 << 5, 1 << 6, 1 << 7, 1 << 8)


def _cases():
    """(budget, depth) pairs: depths 0-20 at the default budget, whose split
    path starts past depth 16, and up to 4 levels past the split under the
    small budgets, where each row has up to 16 subtrees."""
    cases = []
    for budget in BUDGETS:
        log = (budget or limitproc._BOX_BUDGET).bit_length() - 1
        for depth in range(min(20, log + 4) + 1):
            cases.append(pytest.param(budget, depth, id=f"budget{budget or 'default'}-depth{depth}"))
    return cases


def _rows(depth: int, budget: int):
    """Row counts 1, 3, one chunk -1 and +1, and 300, leaving out those over
    1 or 3 rows whose boxes would take more than 64 budgets."""
    log = budget.bit_length() - 1
    chunk = budget >> min(depth, log // 2) if depth <= log else 1
    counts = {1, 3, chunk - 1, chunk + 1, 300}
    return sorted(r for r in counts if r >= 1 and (r <= 3 or r << depth <= budget << 6))


@pytest.fixture
def use_budget(monkeypatch):
    def install(budget):
        if budget is not None:
            monkeypatch.setattr(limitproc, "_BOX_BUDGET", budget)
        return limitproc._BOX_BUDGET
    return install


@pytest.mark.parametrize("two_d", [False, True], ids=["quad", "kd"])
@pytest.mark.parametrize("budget, depth", _cases())
class TestAgainstTheAllocatingChain:
    def test_environments(self, use_budget, budget, depth, two_d):
        for rows in _rows(depth, use_budget(budget)):
            want = _crossing_sums(depth, 0.4, limitproc._env_seeds(4242, 5, rows), two_d)
            got = simulate_many(depth, 0.4, 4242, rows, two_d=two_d, start=5)
            assert np.array_equal(got, want), rows

    def test_path_positions(self, use_budget, budget, depth, two_d):
        for rows in _rows(depth, use_budget(budget)):
            if rows > limitproc._MAX_PATH_GRID:
                continue
            grid = np.random.default_rng(rows).random(rows)
            grid[:4] = (0.4, 0.0, 1.0, -0.0)[:rows]
            want = _crossing_sums(depth, grid, np.full(rows, ENV, dtype=np.uint64), two_d)
            assert np.array_equal(simulate_path(depth, grid, ENV, two_d), want), rows


@pytest.mark.parametrize("two_d", [False, True], ids=["quad", "kd"])
@pytest.mark.parametrize("depth", range(17))
def test_crossing_boxes(depth, two_d):
    for s in (0.0, 0.37, 1.0):
        areas, rel = workspace_boxes(depth, s, ENV, two_d)
        want_areas, want_rel = crossing_boxes(depth, s, ENV, two_d)
        assert np.array_equal(areas, want_areas) and np.array_equal(rel, want_rel)


@pytest.mark.parametrize("job, bound", [
    (("simulate-limit", "--depth", "12", "--grid", "1024"), 15_000),
    (("experiment", "--kind", "limit-moments", "--depth", "14", "--s", "0.4",
      "--replications", "256"), 25_000),
], ids=["path", "limit-moments"])
def test_expansion_jobs_fault_in_their_memory_once(job, bound):
    # fresh temporaries at every level and batch took about 30k (path) and
    # 50k (limit-moments) faults over an import-only child; one workspace per
    # call leaves about 1.5k and 3.5k.  The bounds are half the former.
    base = measure("-c", "import pmquad.cli")["minflt"]
    assert measure("-m", "pmquad.cli", *job)["minflt"] - base < bound
