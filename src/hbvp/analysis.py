"""Empirical checks of the continuity-in-parameter theory.

Implements the discrepancy, the two-sided error/discrepancy sweep,
monomial coefficient extraction and the criterion-vs-behavior agreement
suite.  The suite walks the eps sequence once: per eps it instantiates the
problem and differences its coefficients once, and from those measures the
Limit Condition I norms, the Condition II probe deviation, Theorem 2's
operator-distance probe P(eps) and, when Condition (0) holds, the sweep
row.  Its verdict carries Theorem 2's report.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import expr as ex
from .grid import (DEFAULT_SAMPLES, GridFunction, HolderIndex,
                   algebra_constant, holder_norm, interpolate, product)
from .problem import ProblemFamily, apply_B, instantiate
from .solver import (ConditionZeroViolated, SolveRejected, apply_L,
                     solve_bvp_direct)

ZERO_TAIL_LEN = 5
ZERO_FINAL_FACTOR = 1e-3
RATIO_BAND_CAP = 1e4


def geometric_eps(eps0: float, factor: float = 0.5, count: int = 20):
    """Default parameter sweep eps_k = eps0 * factor^k, k = 1..count."""
    return [eps0 * factor ** k for k in range(1, count + 1)]


def tends_to_zero(values, final_factor: float = ZERO_FINAL_FACTOR) -> bool:
    """Finite-sweep operationalization of 'tends to 0'.

    PASS when the last-5 tail is strictly decreasing and the final value
    is below final_factor*(first value + 1); an identically tiny sequence
    also passes.
    """
    values = list(values)
    vals = [v for v in values if v is not None and not math.isnan(v)]
    if len(vals) != len(values) or not vals:
        return False
    tail = vals[-ZERO_TAIL_LEN:]
    if all(v < 1e-12 for v in tail):
        return True
    decreasing = all(t2 < t1 for t1, t2 in zip(tail, tail[1:]))
    return decreasing and vals[-1] < final_factor * (vals[0] + 1.0)


def default_probes(fam: ProblemFamily, N: int = 32):
    """Monomial and trigonometric probe functions in C^{n+r,alpha}.

    {t^p e_q : p <= r+2} plus {sin(t) e_q, cos(t) e_q}.
    """
    sources = [f"t^{p}" if p > 1 else ("t" if p == 1 else "1")
               for p in range(fam.r + 3)]
    sources += ["sin(t)", "cos(t)"]
    return [interpolate([[src if i == q else "0"] for i in range(fam.m)],
                        fam.interval, N)
            for src in sources for q in range(fam.m)]


def _eps_diff(e_eps: np.ndarray, e_zero: np.ndarray, fam: ProblemFamily,
              eps: float, N: int) -> GridFunction:
    """e(., eps) - e(., 0) with an exact symbolic source."""
    diff = np.empty(e_eps.shape, dtype=object)
    for idx in np.ndindex(e_eps.shape):
        diff[idx] = ex.sub(e_eps[idx], ex.substitute_eps(e_zero[idx], 0.0))
    return GridFunction.from_exprs(diff, fam.interval, N, eps=eps)


def _rhs_diff(fam: ProblemFamily, eps: float, N: int) -> GridFunction:
    return _eps_diff(fam.rhs_exprs(eps), fam.rhs_exprs(0.0), fam, eps, N)


def _all_zero(sources: np.ndarray) -> bool:
    return all(isinstance(e, ex.Const) and e.value == 0 for e in sources.flat)


def _coeff_diffs(fam: ProblemFamily, eps: float, N: int) -> list:
    """The pairs (j, A_j(., eps) - A_j(., 0)), each with an exact symbolic
    source, whose difference does not fold to the zero expression.

    A zero difference has Holder norm 0, and leaving it out keeps a purely
    rough right-hand-side perturbation's symbolic source (and hence its
    exact Holder seminorm) in the perturbation residual.
    """
    diffs = ((j, _eps_diff(c, z, fam, eps, N)) for j, (c, z) in
             enumerate(zip(fam.coeff_exprs(eps), fam.coeff_exprs(0.0))))
    return [(j, d) for j, d in diffs if not _all_zero(d.sources)]


def _coeff_diff_action(diffs: list, y: GridFunction,
                       acc: GridFunction | None = None):
    """acc - sum_j (A_j(eps) - A_j(0)) y^(j) over the `_coeff_diffs`, acc
    taken as 0 when None; None when both acc and diffs are empty."""
    for j, dA in diffs:
        term = product(dA, y.derivative(j))
        acc = term.scale(-1.0) if acc is None else acc - term
    return acc


# --- discrepancy and the two-sided sweep -------------------------------------

def _perturbation(fam: ProblemFamily, inst0, y0: GridFunction):
    """The residual of y0 in an eps problem with the eps = 0 problem's
    residual cancelled exactly, as a function of the eps instance and its
    `_coeff_diffs`.

    It returns h = (f(eps) - f(0)) - (L(eps) - L(0)) y0 and the boundary
    data c_delta = (c(eps) - c(0)) - (B(eps) - B(0)) y0: the right-hand
    side and boundary data of delta = y(eps) - y(0), whose norms make up
    the discrepancy.  B(0) y0 is applied once.
    """
    B0y0 = apply_B(inst0.B, y0)[:, 0]

    def at(inst, diffs):
        h = _coeff_diff_action(diffs, y0, _rhs_diff(fam, inst.eps, inst.N))
        c_delta = (inst.c - inst0.c) - (apply_B(inst.B, y0)[:, 0] - B0y0)
        return h, c_delta
    return at


def _discrepancy_norm(resid: GridFunction, bvec: np.ndarray,
                      idx: HolderIndex, M: int) -> float:
    return holder_norm(resid, idx, M).total + float(np.linalg.norm(bvec))


def discrepancy(fam: ProblemFamily, eps: float, y0: GridFunction,
                N: int = 32, M: int = DEFAULT_SAMPLES,
                direct: bool = False) -> float:
    """||L(eps) y0 - f(., eps)||_{n,alpha} + |B(eps) y0 - c(eps)|.

    By default y0 is treated as the exact solution of the unperturbed
    problem it was computed from, i.e. L(0) y0 - f(0) and B(0) y0 - c(0)
    are cancelled symbolically before taking norms; this keeps tiny-eps
    discrepancies free of the base solve's truncation noise.  Pass
    direct=True for the literal definition.
    """
    inst = instantiate(fam, eps, N)
    if direct:
        resid = apply_L(inst, y0) - inst.rhs
        bvec = apply_B(inst.B, y0)[:, 0] - inst.c
    else:
        resid, bvec = _perturbation(fam, instantiate(fam, 0.0, N), y0)(
            inst, _coeff_diffs(fam, eps, N))
    return _discrepancy_norm(resid, bvec, fam.idx, M)


@dataclass
class SweepRecord:
    eps: float
    error: float | None            # ||y(.,0) - y(.,eps)||_{n+r,alpha}
    discrepancy: float | None
    ratio: float | None
    cond0_margin: float | None
    solve_residual: float | None
    failure: str | None = None


@dataclass
class SweepReport:
    family: str
    records: list
    kappa_hat_low: float | None
    kappa_hat_high: float | None
    band_violation: bool

    COLUMNS = ("eps", "error", "discrepancy", "ratio", "cond0_margin",
               "solve_residual", "failure")

    def rows(self):
        for rec in self.records:
            yield [rec.eps, rec.error, rec.discrepancy, rec.ratio,
                   rec.cond0_margin, rec.solve_residual, rec.failure or ""]

    def write_csv(self, path: str):
        write_csv(path, self.COLUMNS, self.rows())

    def summary(self):
        return {
            "family": self.family,
            "count": len(self.records),
            "kappa_hat_low": self.kappa_hat_low,
            "kappa_hat_high": self.kappa_hat_high,
            "band_violation": self.band_violation,
            "errors_tend_to_zero": tends_to_zero(
                [r.error for r in self.records]),
            "failures": [r.eps for r in self.records if r.failure],
        }


def _descending(fam: ProblemFamily, eps_sequence) -> list:
    """eps_sequence, or the family's default sweep, largest eps first."""
    return sorted(geometric_eps(fam.eps0) if eps_sequence is None
                  else eps_sequence, reverse=True)


def _sweep_row(fam: ProblemFamily, inst0, y0: GridFunction, M: int):
    """The sweep's record at eps, as a function of the eps instance and its
    `_coeff_diffs`; y0 solves the eps = 0 instance inst0.  Solve failures
    are recorded as data."""
    err_idx = HolderIndex(fam.idx.n + fam.r, fam.idx.alpha)
    perturbation = _perturbation(fam, inst0, y0)

    def row(inst, diffs):
        try:
            # delta = y(eps) - y(0) from the exactly-cancelled perturbation
            # data, avoiding loss of significance at tiny eps
            h, c_delta = perturbation(inst, diffs)
            delta = solve_bvp_direct(replace(inst, rhs=h.resample(inst.N),
                                             c=c_delta))
            error = holder_norm(delta.y, err_idx, M).total
            d = _discrepancy_norm(h, c_delta, fam.idx, M)
            ratio = error / d if d > 0 else None
            return SweepRecord(inst.eps, error, d, ratio, delta.margin,
                               delta.residual)
        except (ConditionZeroViolated, SolveRejected) as err:
            return SweepRecord(inst.eps, None, None, None, None, None,
                               failure=type(err).__name__)
    return row


def two_sided_sweep(fam: ProblemFamily, eps_sequence=None, N: int = 32,
                    M: int = DEFAULT_SAMPLES) -> SweepReport:
    """Error-vs-discrepancy ratios along an eps sweep, in decreasing eps.

    Raises ConditionZeroViolated when the unperturbed problem is
    ill-posed; solve failures at individual eps are recorded as data.
    """
    inst0 = instantiate(fam, 0.0, N)
    res0 = solve_bvp_direct(inst0)
    row = _sweep_row(fam, inst0, res0.y, M)
    records = [row(instantiate(fam, eps, N), _coeff_diffs(fam, eps, N))
               for eps in _descending(fam, eps_sequence)]
    ratios = [r.ratio for r in records if r.ratio is not None]
    lo = min(ratios) if ratios else None
    hi = max(ratios) if ratios else None
    violation = bool(ratios) and hi / lo > RATIO_BAND_CAP
    return SweepReport(fam.name, records, lo, hi, violation)


# --- main theorem agreement and operator convergence -------------------------

@dataclass
class Theorem2Report:
    eps_sequence: list
    S: list           # aggregate coefficient-difference norms
    P: list           # probe lower bounds on ||L(eps) - L(0)||
    c2: float
    bound_holds: bool           # P(eps) <= c2 * S(eps) for every eps
    S_tends_to_zero: bool
    P_tends_to_zero: bool
    joint: bool       # both tails decrease or both do not


@dataclass
class MainTheoremVerdict:
    family: str
    cond0_margin: float
    cond0_ok: bool
    condI_ok: bool
    condII_ok: bool
    criterion: bool
    solvable: bool              # empirical (*): every swept solve succeeded
    errors_tend_to_zero: bool   # empirical (**)
    behavior: bool
    agreement: bool
    eps_sequence: list = field(repr=False)     # largest eps first
    condI_norms: list = field(repr=False)      # per eps: r Holder norms
    condII_probe: list = field(repr=False)     # per eps: max probe deviation
    theorem2: Theorem2Report = field(repr=False)


def main_theorem_suite(fam: ProblemFamily, eps_sequence=None,
                       N: int = 32, M: int = DEFAULT_SAMPLES,
                       criterion_final_factor: float = ZERO_FINAL_FACTOR
                       ) -> MainTheoremVerdict:
    """Check that the criterion side (Condition (0) + Limit Conditions I
    and II) agrees with the observed solvability-and-convergence side, and
    grade Theorem 2's operator convergence.

    One walk down the eps sequence instantiates each eps and builds its
    `_coeff_diffs` once.  From them it measures the Condition I norms
    ||A_j(eps) - A_j(0)||_{n,alpha}, the Condition II deviation
    max |(B(eps) - B(0)) y| over the probes y, Theorem 2's P(eps) and,
    when Condition (0) holds, the sweep row.
    """
    idx = fam.idx
    eps_sequence = _descending(fam, eps_sequence)
    inst0 = instantiate(fam, 0.0, N)
    # the eps = 0 solve decides Condition (0) from its one factorization;
    # an unsatisfied gate is an unsolvable problem, and the walk skips the
    # solves but measures everything else
    try:
        res0 = solve_bvp_direct(inst0)
    except ConditionZeroViolated as err:
        margin, row = err.margin, None
    else:
        margin, row = res0.margin, _sweep_row(fam, inst0, res0.y, M)
    probes = default_probes(fam, N)
    B0_probes = [apply_B(inst0.B, y)[:, 0] for y in probes]
    err_idx = HolderIndex(idx.n + fam.r, idx.alpha)
    probe_norms = [holder_norm(y, err_idx, M).total for y in probes]
    K = algebra_constant(idx)
    deriv_sums = [max(holder_norm(y.derivative(j), idx, M).total
                      for j in range(fam.r)) for y in probes]
    c2 = max(K * ds / pn for ds, pn in zip(deriv_sums, probe_norms))
    condI, condII, P, records = [], [], [], []
    for eps in eps_sequence:
        inst = instantiate(fam, eps, N)
        diffs = _coeff_diffs(fam, eps, N)
        norms = [0.0] * fam.r
        for j, dA in diffs:
            norms[j] = holder_norm(dA, idx, M).total
        condI.append(norms)
        dev = best = 0.0
        for y, B0y, pn in zip(probes, B0_probes, probe_norms):
            delta = apply_B(inst.B, y)[:, 0] - B0y
            dev = max(dev, float(np.linalg.norm(delta)))
            acc = _coeff_diff_action(diffs, y)   # -(L(eps) - L(0)) y
            if acc is not None:
                best = max(best, holder_norm(acc, idx, M).total / pn)
        condII.append(dev)
        P.append(best)
        if row is not None:
            records.append(row(inst, diffs))

    condI_ok = all(tends_to_zero([norms[j] for norms in condI],
                                 criterion_final_factor)
                   for j in range(fam.r))
    condII_ok = tends_to_zero(condII, criterion_final_factor)
    cond0_ok = row is not None
    solvable = cond0_ok and not any(r.failure for r in records)
    errors_ok = cond0_ok and tends_to_zero([r.error for r in records])
    criterion = cond0_ok and condI_ok and condII_ok
    behavior = solvable and errors_ok
    # S(eps) = sum_j ||A_j(eps) - A_j(0)||_{n,alpha} dominates P(eps) up
    # to the calibrated constant c2, and the two vanish together
    S = [sum(norms) for norms in condI]
    slack = 1e-9
    holds = all(p <= c2 * s + slack * (1 + s) for p, s in zip(P, S))
    s_zero, p_zero = tends_to_zero(S), tends_to_zero(P)
    return MainTheoremVerdict(
        family=fam.name, cond0_margin=margin,
        cond0_ok=cond0_ok, condI_ok=condI_ok, condII_ok=condII_ok,
        criterion=criterion, solvable=solvable, errors_tend_to_zero=errors_ok,
        behavior=behavior, agreement=(criterion == behavior),
        eps_sequence=eps_sequence, condI_norms=condI, condII_probe=condII,
        theorem2=Theorem2Report(list(eps_sequence), S, P, c2, holds, s_zero,
                                p_zero, s_zero == p_zero))


def theorem2_equivalence_check(fam: ProblemFamily, eps_sequence=None,
                               N: int = 32, M: int = DEFAULT_SAMPLES
                               ) -> Theorem2Report:
    """Probe operator-norm lower bounds P(eps) against the coefficient
    aggregate S(eps); the Theorem 2 part of `main_theorem_suite`."""
    return main_theorem_suite(fam, eps_sequence, N, M).theorem2


def extract_coefficients_monomials(fam: ProblemFamily, eps: float,
                                   N: int = 32):
    """Recover A_0..A_{r-1} from the action of L(eps) on t^p I_m.

    Uses the triangular recursion A_{k+1} = ((k+1)!)^{-1} (L Z - sum_l
    A_l Z^(l)) with Z = t^{k+1} I_m; exact for polynomial coefficients.
    """
    inst = instantiate(fam, eps, N)
    r, m = fam.r, fam.m
    recovered = []
    for p in range(r):
        Z = _monomial_matrix(fam, p, m, N)
        acc = apply_L(inst, Z)
        for l in range(p):
            # Z^(l) = p!/(p-l)! t^{p-l} I
            coeff = math.factorial(p) / math.factorial(p - l)
            Zl = _monomial_matrix(fam, p - l, m, max(N, acc.N)).scale(coeff)
            acc = acc - product(recovered[l], Zl)
        recovered.append(acc.scale(1.0 / math.factorial(p)))
    return recovered


def _monomial_matrix(fam: ProblemFamily, p: int, m: int, N: int) -> GridFunction:
    src = "1" if p == 0 else ("t" if p == 1 else f"t^{p}")
    return interpolate([[src if i == j else "0" for j in range(m)]
                        for i in range(m)], fam.interval, N)


# --- serialization -------------------------------------------------------------

def fmt(value) -> str:
    """17-significant-digit, locale-free number formatting."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    return format(float(value), ".17g")


def write_csv(path: str, columns, rows):
    """A header and one CRLF-ended line per row.  A 2-D float array takes one
    '%.17g' format of the whole body (`fmt`'s bytes); other rows, which may
    hold None, str or bool, go through csv.writer and `fmt`."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
            fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))
            return
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_json(path: str, payload):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
