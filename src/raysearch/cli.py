"""Command-line front end: bounds, ratio sweeps, and the refuter.

Exit status: 0 success or certificate; 1 usage or parameter-regime
errors, among them a strategy file that is malformed, whose robot count
or kind does not match -k and --mode or that visits a ray past -m,
--alpha together with --strategy, a numeric flag that is NaN or
infinite, -N below 1, an instance whose first turn underflows to 0,
whose largest turn overflows binary64 or whose generated set would
exceed strategy.MAX_ROUNDS rounds,
--dense or --rel-step without --csv, --rel-step without --dense, a
--rel-step too small for a finite dense grid up to N or for one of at
most simulator.MAX_GRID_POINTS points, -N together with
--auto-horizon, -C without --auto-horizon, --auto-horizon whose default
C overflows or whose N is inf without --strategy, --lam, -m, -k or -f
together with --eta (a flag the command would ignore is an error), a
--gap-constant of at most 1 (whatever the verdict) and line strategies
with -m other than 2; 2 coverage failure or uncovered witness; 3 a
broken refuter invariant, potential.AuditError or
potential.InvalidAssignmentError; 141 (128 + SIGPIPE, as a shell reports
a tool that a closed pipe stops) when the reader of stdout has gone,
with nothing written to stderr.  Each of the
other errors is written to stderr as one line `raysearch: ...` that
keeps its own text.  All emitted CSV/JSON is deterministic for a
given configuration (no timestamps in data files).

`main` builds its argument parser on its first call and hands the same
parser to every later call in the process; parsing keeps no state
between calls.

Every JSON answer, on stdout and in a --json or --summary file, is
`_print_json`'s: sorted keys, and null for a non-finite float (JSON has
no inf or NaN), at the top or in a nested dict.

`simulate --csv` formats each line from the sweep's plain answer, a
target's sorted (time, robot) arrivals, and builds no DetectionReport per
row; with breakpoint rows the summary's sup_ratio and witness are the sup
that the same sweep kept.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Iterable, Sequence

from .formulas import (
    CoverParams,
    InfeasibleRegime,
    InstanceParams,
    NoFiniteHorizon,
    TrivialRegime,
    growth_factor_delta,
    horizon_estimate,
    optimal_alpha,
    ratio_lower_bound,
)
from .fractional import fractional_ratio
from .potential import AuditError, InvalidAssignmentError, detect_gap, refute
from .simulator import _REL_STEP, Answer, _detected, _rows, worst_ratio
from .strategy import (
    load_strategies,
    make_exponential_strategy,
    make_geometric_line_strategy,
)

SWEEP_HEADER = "# raysearch sweep v1"
TRACE_HEADER = "# raysearch trace v1"
ASSIGNMENT_HEADER = "# raysearch assignment v1"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to status 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def print_help(self, file=None):
        # argparse drops a failed write, and --help exits before main's
        # flush: write and flush here, so a closed pipe reaches main
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def _finite(text: str) -> float:
    """The argparse type of every float flag: NaN and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _nulled(doc: dict) -> dict:
    """doc with each non-finite float, in it or in a dict nested in it, None."""
    return {key: _nulled(v) if isinstance(v, dict)
            else None if isinstance(v, float) and not math.isfinite(v) else v
            for key, v in doc.items()}


def _print_json(doc: dict, path: str | None = None, indent: int | None = 2) -> None:
    """Print doc as strict JSON with sorted keys, and write the same text to
    path if one is given.  A non-finite float in a list is a ValueError."""
    text = json.dumps(_nulled(doc), sort_keys=True, indent=indent, allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _instance(args) -> InstanceParams:
    # -m, -k and -f default to None, so that `bound --eta` can tell them given
    return InstanceParams(
        2 if args.m is None else args.m,
        1 if args.k is None else args.k,
        0 if args.f is None else args.f,
    )


def cmd_bound(args) -> int:
    if args.eta is not None:
        if args.lam is not None:
            raise ValueError("--eta and --lam are exclusive: C(eta) has no delta row")
        if (args.m, args.k, args.f) != (None, None, None):
            raise ValueError("--eta and -m/-k/-f are exclusive: C(eta) depends on eta alone")
        value = fractional_ratio(args.eta)
        if args.json:
            _print_json({"eta": args.eta, "ratio": value}, indent=None)
        else:
            print(f"C(eta={args.eta}) = {value:.10g}")
        return 0
    p = _instance(args)
    lam0 = ratio_lower_bound(p)
    alpha = optimal_alpha(p)
    row = {
        "m": p.m,
        "k": p.k,
        "f": p.f,
        "q": p.q,
        "s": p.s,
        "rho": p.rho,
        "lambda0": lam0,
        "alpha": alpha,
    }
    if args.lam is not None:
        row["delta"] = growth_factor_delta(p.s, p.k, CoverParams(args.lam).mu)
    if args.json:
        _print_json(row, indent=None)
    else:
        print(f"m={p.m} k={p.k} f={p.f}  q={p.q} s={p.s} rho={p.rho:.6g}")
        print(f"lambda0 = {lam0:.10g}")
        print(f"alpha   = {alpha:.10g}")
        if "delta" in row:
            print(f"delta({args.lam}) = {row['delta']:.10g}")
    return 0


def _build_strategies(args, p: InstanceParams, N: float, mode: str = "orc"):
    if args.strategy:
        if args.alpha is not None:
            raise ValueError(
                "--alpha and --strategy are exclusive: the file fixes the turns"
            )
        return load_strategies(args.strategy)
    alpha = args.alpha if args.alpha is not None else optimal_alpha(p)
    make = make_geometric_line_strategy if mode == "line" else make_exponential_strategy
    return make(p, alpha, N)


def _write_csv(path: str, header: str, columns: str, lines: Iterable[str]) -> None:
    """A CSV file: its format header, its column line, then one line per row."""
    with open(path, "w") as fh:
        fh.write(f"{header}\n{columns}\n")
        fh.writelines(f"{line}\n" for line in lines)


def _sweep_lines(rows: Sequence[Answer], p: InstanceParams) -> list[str]:
    """The sweep CSV's rows, one per target."""
    f = p.f
    names = [str(r) for r in range(p.k)]
    lines = []
    for _, (ray, x, above), times in rows:
        tau, ratio = _detected(times, x, f)
        order = "|".join([names[r] for _, r in times])
        if tau is None:
            lines.append(f"{ray},{x!r},{int(above)},,,{order}")
        else:
            lines.append(f"{ray},{x!r},{int(above)},{tau!r},{ratio!r},{order}")
    return lines


def cmd_simulate(args) -> int:
    if (args.dense or args.rel_step is not None) and not args.csv:
        raise ValueError("--dense and --rel-step choose the --csv rows: give --csv")
    if args.rel_step is not None and not args.dense:
        raise ValueError("--rel-step is the step of the --dense grid: give --dense")
    p = _instance(args)
    strategies = _build_strategies(args, p, args.N)
    if args.csv and not args.dense:
        # the breakpoint rows are worst_ratio's candidates, and their sup its sup
        (sup, (ray, x)), rows = _rows(strategies, p, args.N)
    else:
        sup, witness = worst_ratio(strategies, p, args.N)
        ray, x = witness.ray, witness.x
        if args.csv:
            step = _REL_STEP if args.rel_step is None else args.rel_step
            _, rows = _rows(strategies, p, args.N, dense=True, rel_step=step)
    if args.csv:
        columns = "ray,x,just_above,tau,ratio,robot_order"
        _write_csv(args.csv, SWEEP_HEADER, columns, _sweep_lines(rows, p))
    try:
        lam0 = ratio_lower_bound(p)
    except (TrivialRegime, InfeasibleRegime):
        lam0 = None
    summary = {
        "sup_ratio": sup,
        "covered": math.isfinite(sup),
        "witness": {"ray": ray, "x": x},
        "lambda0": lam0,
        "gap": (lam0 - sup) if lam0 is not None and math.isfinite(sup) else None,
        "N": args.N,
    }
    _print_json(summary, args.summary)
    return 0 if math.isfinite(sup) else 2


def cmd_refute(args) -> int:
    if args.gap_constant is not None and not args.gap_constant > 1.0:
        raise ValueError(f"gap constant C must be > 1, got {args.gap_constant}")
    p = _instance(args)
    if args.auto_horizon:
        if args.N is not None:
            raise ValueError("-N and --auto-horizon are exclusive: --auto-horizon sets N")
        try:
            C = args.C if args.C is not None else optimal_alpha(p) ** (2 * p.m * p.k)
        except OverflowError:
            raise ValueError("--auto-horizon: C = alpha^(2mk) overflows; give -C") from None
        N = horizon_estimate(p, args.lam, C)
        if N == math.inf and not args.strategy:
            raise ValueError("--auto-horizon estimates N = inf: no strategy is generated that far")
    else:
        if args.C is not None:
            raise ValueError("-C is the constant of --auto-horizon: give --auto-horizon")
        if args.N is None:
            raise ValueError("refute: provide -N or --auto-horizon")
        N = args.N
    strategies = _build_strategies(args, p, N, mode=args.mode)
    verdict = refute(strategies, args.lam, p, N, mode=args.mode)
    doc = verdict.to_dict()
    # a coverage failure has no assignment, and a multiplicity of 0 an
    # empty one: either way there is no stream to scan, and the gap is null
    if args.gap_constant is not None:
        doc["gap"] = None
        if verdict.assignment:
            gap = detect_gap(verdict.assignment, args.gap_constant, CoverParams(args.lam))
            doc["gap"] = {"round" if n == "round_index" else n: v for n, v in asdict(gap).items()}
    # a coverage failure has no audit: --trace writes the header lines
    # only, while --assignment writes no file.  A line lists a step's index
    # and its (robot, mu_star, x, step_ratio, log_potential_after) tuple,
    # or an assigned (robot, round_index, left, right).
    if args.trace:
        steps = verdict.trace.steps if verdict.trace is not None else []
        lines = (",".join(map(repr, (i, *s))) for i, s in enumerate(steps))
        columns = "step,robot,mu_star,x,step_ratio,log_potential"
        _write_csv(args.trace, TRACE_HEADER, columns, lines)
    if args.assignment and verdict.assignment is not None:
        lines = (",".join(map(repr, iv)) for iv in verdict.assignment)
        _write_csv(args.assignment, ASSIGNMENT_HEADER, "robot,round,t_prime,t", lines)
    _print_json(doc, args.json)
    return 0 if verdict.kind == "certificate" else 2


def _add_instance_args(sub):
    sub.add_argument("-m", type=int, help="ray count (default 2)")
    sub.add_argument("-k", type=int, help="robot count (default 1)")
    sub.add_argument("-f", type=int, help="faulty count (default 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="raysearch")
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("bound", help="closed-form bounds and strategy constants")
    _add_instance_args(b)
    b.add_argument("--lam", type=_finite, default=None, help="also print delta(lambda)")
    b.add_argument("--eta", type=_finite, default=None, help="fractional ratio C(eta)")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=cmd_bound)

    s = subs.add_parser("simulate", help="worst-case ratio sweep of a strategy set")
    _add_instance_args(s)
    s.add_argument("-N", type=_finite, default=1e4, help="sweep horizon (default 1e4)")
    s.add_argument("--alpha", type=_finite, default=None, help="override strategy base")
    s.add_argument("--strategy", help="load strategies from file instead of generating")
    s.add_argument("--csv", help="write per-breakpoint rows here")
    s.add_argument("--summary", help="write the summary JSON here")
    s.add_argument("--dense", action="store_true", help="dense-grid rows instead of breakpoints")
    s.add_argument("--rel-step", type=_finite, help=f"dense grid step (default {_REL_STEP:g})")
    s.set_defaults(func=cmd_simulate)

    r = subs.add_parser("refute", help="verify/refute a multicover, audit the potential")
    _add_instance_args(r)
    r.add_argument("--lam", type=_finite, required=True, help="candidate ratio lambda")
    r.add_argument("-N", type=_finite, default=None, help="cover horizon")
    r.add_argument("--auto-horizon", action="store_true", help="N from horizon_estimate")
    r.add_argument("-C", type=_finite, default=None, help="gap constant for --auto-horizon")
    r.add_argument("--mode", choices=["orc", "line"], default="orc")
    r.add_argument("--alpha", type=_finite, default=None)
    r.add_argument("--strategy", help="load strategies from file instead of generating")
    r.add_argument("--json", help="write the verdict JSON here (always printed)")
    r.add_argument("--trace", help="write the growth-trace CSV here")
    r.add_argument("--assignment", help="write the exact assignment CSV here")
    r.add_argument("--gap-constant", type=_finite, default=None, help="run the gap detector")
    r.set_defaults(func=cmd_refute)
    return parser


# the stderr label and exit code of each error a command may raise
_FAILURES = (
    (InfeasibleRegime, "infeasible regime", 1),
    (TrivialRegime, "trivial regime", 1),
    (NoFiniteHorizon, "no finite horizon", 1),
    (ValueError, "error", 1),
    (OSError, "error", 1),
    (AuditError, "audit failed", 3),
    (InvalidAssignmentError, "invalid assignment", 3),
)
_FAILURE_TYPES = tuple(kind for kind, _, _ in _FAILURES)
BROKEN_PIPE_EXIT = 141


@functools.cache
def _parser() -> _Parser:
    # built on first use, not at import, and kept for the process
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: say nothing, and point stdout at devnull so
        # that the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    except _FAILURE_TYPES as exc:
        label, code = next((lb, c) for kind, lb, c in _FAILURES if isinstance(exc, kind))
        print(f"raysearch: {label}: {exc}", file=sys.stderr)
        return code

if __name__ == "__main__":
    raise SystemExit(main())
