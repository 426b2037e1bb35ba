"""Batch command-line front end.

Subcommands: `solve` (one problem at one parameter value), `sweep`
(error/discrepancy ratios along a geometric parameter sequence), and
`verify` (criterion-vs-behavior agreement suites).  All artifacts are
plain CSV/JSON with 17-significant-digit numbers and no timestamps, so
identical invocations produce byte-identical files.

Exit codes: 0 success, 1 configuration or parse error, 2 well-posedness
(Condition (0)) violation or a solve rejected by the residual gate,
3 verification disagreement.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import analysis as an
from .expr import ParseError
from .grid import DEFAULT_SAMPLES, min_samples
from .problem import (ConfigError, GALLERY_NAMES, apply_B, gallery,
                      instantiate, load_problem)
from .solver import ConditionZeroViolated, SolveRejected, solve_bvp_direct

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONDITION_ZERO = 2
EXIT_DISAGREEMENT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _load_family(args):
    if args.config:
        return load_problem(args.config)
    return gallery(args.gallery)


def cmd_solve(args) -> int:
    fam = _load_family(args)
    inst = instantiate(fam, args.eps, args.degree)
    res = solve_bvp_direct(inst)
    out = args.out
    ts = np.linspace(fam.interval[0], fam.interval[1], 4 * res.N + 1)
    vals = res.y.eval_at(ts)[:, 0]
    cols = ["t"] + [f"{part}_y{p}" for p in range(fam.m)
                    for part in ("re", "im")]
    an.write_csv(os.path.join(out, "solution.csv"), cols, np.column_stack(
        [ts] + [part for y in vals for part in (y.real, y.imag)]))
    an.write_json(os.path.join(out, "solve_summary.json"), {
        "family": fam.name, "eps": args.eps, "degree": res.N,
        "route": res.route, "residual": res.residual,
        "boundary_residual": float(
            np.linalg.norm(apply_B(inst.B, res.y)[:, 0] - inst.c)),
        "cond0_margin": res.margin,
    })
    print(f"{fam.name}: solved at eps={an.fmt(args.eps)}, N={res.N}, "
          f"residual={an.fmt(res.residual)}, "
          f"cond0 margin={an.fmt(res.margin)}")
    return EXIT_OK


def _check_samples(args):
    """Reject a --samples M below min_samples(--degree) before any load."""
    least = min_samples(args.degree)
    if args.samples < least:
        raise _UsageError(f"argument --samples: must be >= {least} at "
                          f"--degree {args.degree}, got {args.samples}")


def cmd_sweep(args) -> int:
    if args.count < 1:
        raise _UsageError(f"argument --count: must be >= 1, got {args.count}")
    if not 0.0 < args.factor < 1.0:
        raise _UsageError(
            f"argument --factor: must lie in (0, 1), got {args.factor}")
    if args.eps0 is not None and not args.eps0 > 0.0:
        raise _UsageError(f"argument --eps0: must be > 0, got {args.eps0}")
    _check_samples(args)
    fam = _load_family(args)
    if args.eps is not None:
        flag, eps_seq = "--eps", args.eps
    else:
        # started from the family's own eps0 the sequence stays in range
        flag = "--eps0"
        eps0 = args.eps0 if args.eps0 is not None else fam.eps0
        eps_seq = an.geometric_eps(eps0, args.factor, args.count)
        if eps_seq[-1] == 0.0:
            raise _UsageError(
                f"argument --factor: eps0 * factor^k underflows to 0 at "
                f"k = {eps_seq.index(0.0) + 1}, got {args.factor}")
    for eps in eps_seq:
        if not 0.0 <= eps < fam.eps0:
            raise _UsageError(f"argument {flag}: eps={eps} outside "
                              f"[0, {fam.eps0})")
    report = an.two_sided_sweep(fam, eps_seq, N=args.degree, M=args.samples)
    out = args.out
    report.write_csv(os.path.join(out, "sweep.csv"))
    an.write_csv(os.path.join(out, "sweep_plot.csv"),
                 ("eps", "error", "discrepancy", "ratio"),
                 ([r.eps, r.error, r.discrepancy, r.ratio]
                  for r in report.records))
    s = report.summary()
    an.write_json(os.path.join(out, "sweep_summary.json"), s)
    print(f"{fam.name}: {s['count']} parameter values, ratio band "
          f"[{an.fmt(s['kappa_hat_low'])}, {an.fmt(s['kappa_hat_high'])}], "
          f"errors tend to zero: {s['errors_tend_to_zero']}")
    if report.band_violation:
        print("warning: ratio band exceeds the two-sided estimate "
              "tolerance", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 0.0 < args.zero_tol < np.inf:
        raise _UsageError(f"argument --zero-tol: must be finite and > 0, "
                          f"got {args.zero_tol}")
    _check_samples(args)
    families = ([gallery(n) for n in GALLERY_NAMES] if args.all
                else [_load_family(args)])
    rows = []
    all_ok = True
    for fam in families:
        verdict = an.main_theorem_suite(
            fam, N=args.degree, M=args.samples,
            criterion_final_factor=args.zero_tol)
        t2 = verdict.theorem2
        ok = verdict.agreement and t2.joint and t2.bound_holds
        all_ok = all_ok and ok
        rows.append([fam.name, verdict.cond0_ok, verdict.condI_ok,
                     verdict.condII_ok, verdict.criterion, verdict.solvable,
                     verdict.errors_tend_to_zero, verdict.behavior,
                     verdict.agreement, t2.joint, t2.bound_holds, ok])
        status = "AGREEMENT" if ok else "DISAGREEMENT"
        print(f"{fam.name}: criterion={verdict.criterion} "
              f"behavior={verdict.behavior} "
              f"operator_equivalence={t2.joint and t2.bound_holds} "
              f"-> {status}")
        if not verdict.agreement:
            side = ("criterion (Condition (0) / Limit Conditions I, II)"
                    if verdict.criterion else
                    "behavior (solvability and error decay)")
            print(f"  only the {side} side holds", file=sys.stderr)
    if args.out:
        an.write_csv(os.path.join(args.out, "verify.csv"),
                     ("family", "cond0", "condI", "condII", "criterion",
                      "solvable", "errors_to_zero", "behavior",
                      "main_agreement", "t2_joint", "t2_bound", "ok"),
                     rows)
    return EXIT_OK if all_ok else EXIT_DISAGREEMENT


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """Built once per process; `sweep --eps` appends to a list per call."""
    parser = _Parser(prog="hbvp",
                     description="Holder-space boundary-value laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="JSON problem configuration")
        src.add_argument("--gallery", choices=GALLERY_NAMES,
                         help="built-in test family")
        p.add_argument("--degree", type=int, default=32, metavar="N",
                       help="interpolation degree (default 32)")
        p.add_argument("--out", default="out", help="output directory")

    p_solve = sub.add_parser("solve", help="solve at one parameter value")
    common(p_solve)
    p_solve.add_argument("--eps", type=float, default=0.0,
                         help="parameter value (default 0)")

    p_sweep = sub.add_parser("sweep",
                             help="error/discrepancy parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                         metavar="M", help="norm sampling resolution "
                                           "(default %(default)s)")
    p_sweep.add_argument("--eps0", type=float, default=None,
                         help="sweep starting scale, > 0 "
                              "(default: family eps0)")
    p_sweep.add_argument("--factor", type=float, default=0.5,
                         help="geometric factor in (0, 1) (default 0.5)")
    p_sweep.add_argument("--count", type=int, default=20,
                         help="number of parameter values, >= 1 (default 20)")
    p_sweep.add_argument("--eps", type=float, action="append",
                         help="explicit parameter value (repeatable; "
                              "overrides the geometric sequence)")

    p_verify = sub.add_parser("verify",
                              help="criterion-vs-behavior agreement suites")
    tgt = p_verify.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--all", action="store_true",
                     help="verify every gallery family")
    tgt.add_argument("--gallery", choices=GALLERY_NAMES)
    tgt.add_argument("--config", help="JSON problem configuration")
    p_verify.add_argument("--degree", type=int, default=24, metavar="N")
    p_verify.add_argument("--samples", type=int, default=512, metavar="M")
    p_verify.add_argument("--zero-tol", type=float,
                          default=an.ZERO_FINAL_FACTOR,
                          help="decay threshold for the criterion-side "
                               "'tends to zero' verdicts "
                               "(default %(default)s)")
    p_verify.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # looked up per call (the cached parser holds no command function)
        cmd = {"solve": cmd_solve, "sweep": cmd_sweep, "verify": cmd_verify}
        return cmd[args.command](args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolveRejected, np.linalg.LinAlgError) as err:
        # LinAlgError is a ValueError, so it is caught before config errors
        print(f"error: solve rejected: {err}", file=sys.stderr)
        return EXIT_CONDITION_ZERO
    except (ConfigError, ParseError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ConditionZeroViolated as err:
        print(f"error: Condition (0) violated: {err}", file=sys.stderr)
        return EXIT_CONDITION_ZERO


if __name__ == "__main__":
    sys.exit(main())
