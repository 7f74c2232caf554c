"""Command-line interface.

Subcommands: constants, moments, second-moment, simulate-cost, profile,
simulate-limit, experiment, diagnostics.  Global flags (before the
subcommand): --seed, --threads, --out, --format, --config.

Every command with --replications (experiment, simulate-cost, simulate-limit
--replications and diagnostics) runs its replications in blocks of 256 on the
harness's block scheduler (`harness.run_blocks`).  Each block returns a 2-d
array, and the CLI forms its rows only as it writes them.  --threads N (N >= 1)
runs the blocks on at most N processes, this one and forked children, and on
no more than there are blocks or usable CPUs.  Output bytes do not depend on
N.  --replications above 2**24 exits 3 before any block runs.

`python -m pmquad.cli` and the `pmquad` script enter through `run`: it
freezes the imported modules' objects (`gc.freeze`), so that no collection
visits them again (in the run, at shutdown, in forked workers), and exits
with `main`'s code.  `main` freezes nothing, for callers in the same process.
A command imports only the kernels it runs (`limitproc`, `moments`, `kdtree`).

Exit codes: 0 success, 1 stdout closed early (e.g. by `head`; no traceback),
2 invalid arguments (including a command that yields no rows and an --out
path that cannot be written), 3 cap exceeded, 4 acceptance check failed
(--check).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys

# no BLAS call here; parallelism is --threads processes, not a BLAS thread pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import quadtree
from .errors import CapExceededError
from .harness import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    Table,
    _GENERATOR_NAME,
    _block_limit_moments,
    _line_costs,
    _uniform_samples,
    emit_csv,
    emit_plot_data,
    run_blocks,
    run_check,
    run_experiment,
)
from .specfun import constants

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_CHECK_FAILED = 4


def _read_config(path: str) -> dict:
    """One `key = value` per line; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            k, v = (part.strip() for part in line.split("=", 1))
            out[k] = v
    return out


def _integer_at_least(least: int):
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {value!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
        return n

    return parse


_threads, _seed = _integer_at_least(1), _integer_at_least(0)


def _tol_scale(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {value!r}")
    return x


def _add_global_args(p: argparse.ArgumentParser, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    p.add_argument("--seed", type=_seed, default=d(0), help="master seed, >= 0 (default 0)")
    p.add_argument("--threads", type=_threads, default=d(1),
                   help="processes for commands with --replications, this one and "
                        "forked workers (default 1; at most one per block of 256 "
                        "replications and per usable CPU; output is byte-identical for "
                        "any value)")
    p.add_argument("--out", default=d("-"), help="output path, '-' for stdout (default)")
    p.add_argument("--format", choices=("csv", "plot"), default=d("csv"),
                   help="csv or gnuplot-style plot data (default csv)")
    p.add_argument("--config", default=d(None),
                   help="optional key=value file supplying defaults; flags win")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pmquad",
        description="Partial-match query costs in random quadtrees and 2-d trees.",
    )
    _add_global_args(p, suppress=False)
    # the same flags are accepted after the subcommand and override the globals
    common = argparse.ArgumentParser(add_help=False)
    _add_global_args(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    sub.add_parser("constants", parents=[common],
                   help="print every closed-form constant as name,value")

    mom = sub.add_parser("moments", parents=[common],
                         help="moment sequence c_m of the limit marginal")
    mom.add_argument("--max-order", type=int, default=12)
    mom.add_argument("--family", choices=("psi", "xiperp"), default="psi")

    sm = sub.add_parser("second-moment", parents=[common], help="iterates of the second-moment operator")
    sm.add_argument("--iters", type=int, default=3)
    sm.add_argument("--grid", type=int, default=512)

    sc = sub.add_parser("simulate-cost", parents=[common], help="replicated partial-match costs")
    sc.add_argument("--n", type=int, default=1000, help="points per tree")
    sc.add_argument("--s", type=float, default=None,
                    help="fixed query position (default: fresh uniform per replication)")
    sc.add_argument("--poisson", type=float, default=None, metavar="T",
                    help="Poissonize: draw the size as Poisson(T) instead of --n")
    sc.add_argument("--tree", choices=("quad", "kd"), default="quad")
    sc.add_argument("--root-axis", choices=("v", "h"), default="v")
    sc.add_argument("--replications", type=int, default=100)

    pr = sub.add_parser("profile", parents=[common], help="exact cost profile of one random tree")
    pr.add_argument("--n", type=int, default=100)
    pr.add_argument("--tree", choices=("quad", "kd"), default="quad")
    pr.add_argument("--root-axis", choices=("v", "h"), default="v")

    sl = sub.add_parser("simulate-limit", parents=[common], help="limit-process approximant Z_n")
    sl.add_argument("--depth", type=int, default=10)
    sl.add_argument("--grid", type=int, default=512,
                    help="grid size for one path realization")
    sl.add_argument("--variant", choices=("quad", "kd"), default="quad")
    sl.add_argument("--replications", type=int, default=None,
                    help="with --s: emit replicated pointwise values instead of a path")
    sl.add_argument("--s", type=float, default=0.5)

    dg = sub.add_parser("diagnostics", parents=[common], help="geometric diagnostics W_n, L_n (and "
                                            "optionally the fill-up level)")
    dg.add_argument("--depth", type=int, default=6)
    dg.add_argument("--replications", type=int, default=100)
    dg.add_argument("--fill-n", type=int, default=None,
                    help="also build a random quadtree of this size per replication "
                         "and report its fill-up level")

    ex = sub.add_parser("experiment", parents=[common], help="seeded Monte Carlo experiment")
    ex.add_argument("--kind", required=True, choices=sorted(EXPERIMENT_KINDS))
    ex.add_argument("--n", type=int, nargs="*", default=[], help="tree sizes")
    ex.add_argument("--t", type=float, default=100.0, help="Poisson time budget")
    ex.add_argument("--replications", type=int, default=100)
    ex.add_argument("--s", type=float, default=0.5)
    ex.add_argument("--s-grid", type=float, nargs="*", default=[])
    ex.add_argument("--depth", type=int, default=10)
    ex.add_argument("--eps", type=float, default=0.1)
    ex.add_argument("--variant", choices=("quad", "kd"), default="quad")
    ex.add_argument("--check", action="store_true",
                    help="evaluate the kind's acceptance bound; exit 4 on failure")
    ex.add_argument("--tol-scale", type=_tol_scale, default=1.0,
                    help="scale every --check tolerance, finite and > 0 "
                         "(diagnostics use only)")
    return p


_GLOBAL_KEYS = ("seed", "threads", "out", "format")


def _apply_config(parser: argparse.ArgumentParser, argv) -> list:
    """Config supplies defaults as `--key value` pairs inserted into argv.

    Global keys go in front of the whole argv and subcommand keys right after
    the subcommand, so every explicit flag comes later and wins.  One file
    can serve several subcommands: a key that another subcommand defines but
    the chosen one does not is skipped; a key no subcommand knows is passed
    on, and argparse rejects it.
    """
    paths = [b for a, b in zip(argv, argv[1:]) if a == "--config"]
    paths += [a.split("=", 1)[1] for a in argv if a.startswith("--config=")]
    argv = list(argv)
    if not paths:
        return argv
    cfg = _read_config(paths[0])
    # the subcommand is the first word that is not a global flag or its value
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 1 if "=" in argv[i] or argv[i] in ("-h", "--help") else 2
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: set(p._option_string_actions) for name, p in sub.choices.items()}
    chosen = flags.get(argv[i] if i < len(argv) else None)
    front, after = [], []
    for k, v in cfg.items():
        flag = f"--{k.replace('_', '-')}"
        if k in _GLOBAL_KEYS:
            front.extend([flag, v])
        elif chosen is None or flag in chosen or not any(flag in f for f in flags.values()):
            after.extend([flag, v])
    return front + argv[: i + 1] + after + argv[i + 1 :]


def _cmd_constants(args) -> tuple:
    rows = constants().as_rows()
    return Table(columns=["name", "value"], rows=rows, meta={}), []


def _cmd_moments(args) -> tuple:
    from .moments import psi_moments, xi_perp_moments
    fn = psi_moments if args.family == "psi" else xi_perp_moments
    table = fn(args.max_order)
    rows = [(m, table.c(m)) for m in range(1, args.max_order + 1)]
    return Table(columns=["m", "c_m"], rows=rows, meta={"family": args.family}), []


def _cmd_second_moment(args) -> tuple:
    from . import moments
    moments._check_grid(args.grid + 2)  # before the grid is built
    gf = moments.second_moment_iterates(args.iters, moments.make_grid(args.grid))
    rows = list(zip(gf.grid.tolist(), gf.values.tolist()))
    return Table(columns=["s", "m_n"], rows=rows, meta={"iters": args.iters}), []


def _replicated(block_fn, args, columns, meta) -> Table:
    """One table of each block's array part after its replication indices; the
    rows are formed a block at a time, as they are written."""
    parts = run_blocks(block_fn, args, args.replications, args.threads)
    starts = itertools.accumulate((len(p) for p in parts), initial=0)
    rows = (zip(range(lo, lo + len(p)), *p.T.tolist()) for lo, p in zip(starts, parts))
    return Table(columns=columns, rows=itertools.chain.from_iterable(rows), meta=meta)


def _block_simulate_cost(args, lo, hi):
    root_axis = args.root_axis if args.tree == "kd" else None
    return _line_costs((args.seed,), lo, hi, args.n, args.poisson, args.s, root_axis)[:, None]


def _cmd_simulate_cost(args) -> tuple:
    if args.poisson is not None:
        quadtree._check_budget(args.poisson)  # before any block runs
    meta = {"seed": args.seed, "tree": args.tree, "generator": _GENERATOR_NAME}
    return _replicated(_block_simulate_cost, args, ["replication", "cost"], meta), []


def _cmd_profile(args) -> tuple:
    xs, ys = quadtree.sample_uniform_xy(args.n, np.random.default_rng([args.seed, 0]))
    if args.tree == "quad":
        prof = quadtree.profile_xy(xs, ys)
    else:
        from . import kdtree
        prof = kdtree.profile_xy(xs, ys, args.root_axis)
    rows = list(zip(prof.breakpoints, prof.values))
    return Table(columns=["breakpoint", "value"], rows=rows, meta={"seed": args.seed}), []


def _cmd_simulate_limit(args) -> tuple:
    from . import limitproc
    quadtree._check_query(args.s)  # path mode does not read --s, but it is refused too
    meta = {"seed": args.seed, "depth": args.depth}
    if args.replications is not None:
        return _replicated(_block_limit_moments, args, ["replication", "value"], meta), []
    limitproc._check_path_grid(args.grid)  # before the grid is built
    grid = np.linspace(0.0, 1.0, args.grid)
    vals = limitproc.simulate_path(args.depth, grid, limitproc.env_seed(args.seed, 0),
                                   two_d=args.variant == "kd")
    rows = list(zip(grid.tolist(), vals.tolist()))
    return Table(columns=["s", "z_n"], rows=rows, meta=meta), []


def _block_diagnostics(args, lo, hi):
    from . import limitproc
    columns = [*limitproc.diagnostics_many(args.depth, args.seed, hi - lo, start=lo)]
    if args.fill_n is not None:
        trees = _uniform_samples((args.seed,), lo, hi, args.fill_n)
        # float64 prints them as before: every level is an integer below 10**12
        columns.append(limitproc._fill_up_levels(trees))
    return np.column_stack(columns)


def _cmd_diagnostics(args) -> tuple:
    columns = ["replication", "wn", "ln"]
    if args.fill_n is not None:
        columns.append("fillup")
    return _replicated(_block_diagnostics, args, columns,
                       {"seed": args.seed, "depth": args.depth}), []


def _cmd_experiment(args) -> tuple:
    spec = ExperimentSpec(
        kind=args.kind,
        sizes=tuple(args.n),
        t=args.t,
        replications=args.replications,
        s=args.s,
        s_grid=tuple(args.s_grid),
        seed=args.seed,
        depth=args.depth,
        eps=args.eps,
        variant=args.variant,
    )
    table = run_experiment(spec, threads=args.threads)
    failures = run_check(spec, table, args.tol_scale) if args.check else []
    return table, failures


# Each handler returns (table, check failures).
_COMMANDS = {
    "constants": _cmd_constants,
    "moments": _cmd_moments,
    "second-moment": _cmd_second_moment,
    "simulate-cost": _cmd_simulate_cost,
    "profile": _cmd_profile,
    "simulate-limit": _cmd_simulate_limit,
    "diagnostics": _cmd_diagnostics,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config(parser, argv)
    except (OSError, ValueError) as exc:
        parser.exit(EXIT_USAGE, f"config error: {exc}\n")
    args = parser.parse_args(argv)

    try:
        table, failures = _COMMANDS[args.command](args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not table.rows:
        print("invalid arguments: the command yields no rows", file=sys.stderr)
        return EXIT_USAGE
    emit = emit_csv if args.format == "csv" else emit_plot_data
    if args.out == "-":
        try:
            emit(table, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left: the rest, and the flush at exit, go to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                emit(table, fh)
        except OSError as exc:
            print(f"cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE

    if failures:
        for msg in failures:
            print(f"check failed: {msg}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def run():
    """The process entry: main() with the import-time objects frozen."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
