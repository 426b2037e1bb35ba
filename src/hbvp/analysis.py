"""Empirical checks of the continuity-in-parameter theory.

Implements the discrepancy, the two-sided error/discrepancy sweep,
monomial coefficient extraction and the criterion-vs-behavior agreement
suite.  The sweep and the suite share one walk down the eps sequence
(`_walk`), which instantiates the swept eps, differences their
coefficients, forms their perturbations and factors their delta solves as
one stack, with the records per eps.  From each eps's instance and
differences the suite measures the Limit Condition I norms, the Condition
II probe deviation and Theorem 2's operator-distance probe P(eps).  Its
verdict carries Theorem 2's report.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import chebyshev as cheb
from . import expr as ex
from .grid import (DEFAULT_SAMPLES, GridFunction, HolderIndex, _eval_exprs,
                   _grid_data, algebra_constant, holder_norms, interpolate,
                   product)
from .problem import (ProblemFamily, apply_B, boundary_matrix, instantiate,
                      instantiate_stack)
from .solver import (ConditionZeroViolated, SolveRejected, apply_L, factor,
                     solve_bvp_direct, stack_size)

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


def _eps_diff(e_eps: np.ndarray, e_zero: np.ndarray) -> np.ndarray:
    """The symbolic e(., eps) - e(., 0), entry by entry."""
    diff = np.empty(e_eps.shape, dtype=object)
    for idx in np.ndindex(e_eps.shape):
        diff[idx] = ex.sub(e_eps[idx], ex.substitute_eps(e_zero[idx], 0.0))
    return diff


def _all_zero(sources: np.ndarray) -> bool:
    return all(isinstance(e, ex.Const) and e.value == 0 for e in sources.flat)


def _diff_exprs(fam: ProblemFamily, eps: float):
    """The symbolic f(., eps) - f(., 0) and the pairs (j, A_j(., eps) -
    A_j(., 0)) whose difference does not fold to the zero expression: one
    set for every eps > 0 (`keyed_exprs`), built before any evaluation.

    A zero difference has Holder norm 0, and leaving it out keeps a purely
    rough right-hand-side perturbation's symbolic source (and hence its
    exact Holder seminorm) in the perturbation residual.
    """
    coeffs = enumerate(zip(fam.coeff_exprs(eps), fam.coeff_exprs(0.0)))
    diffs = [(j, _eps_diff(c, z)) for j, (c, z) in coeffs]
    return (_eps_diff(fam.rhs_exprs(eps), fam.rhs_exprs(0.0)),
            [(j, d) for j, d in diffs if not _all_zero(d)])


def _coeff_diffs(fam: ProblemFamily, eps: float, N: int) -> list:
    """The pairs (j, A_j(., eps) - A_j(., 0)) of `_diff_exprs` at degree N,
    each keeping its exact symbolic source."""
    return [(j, GridFunction.from_exprs(d, fam.interval, N, eps=eps))
            for j, d in _diff_exprs(fam, eps)[1]]


# --- discrepancy and the two-sided sweep -------------------------------------

def _perturbations(fam: ProblemFamily, inst0, y0: GridFunction):
    """The residual of y0 in eps problems with the eps = 0 problem's
    residual cancelled exactly, as a function of instances on one side of
    eps = 0, their symbolic `_diff_exprs` rhs_diff and their coefficient
    differences dA2N, pairs (j, A_j(eps) - A_j(0) at the degree-2N nodes,
    stacked along eps); y0 solves inst0.

    Per instance it gives h = (f(eps) - f(0)) - (L(eps) - L(0)) y0, h at
    degree N and c_delta = (c(eps) - c(0)) - (B(eps) - B(0)) y0, the
    right-hand side and boundary data of delta = y(eps) - y(0).  h is formed
    for the stack at degree 2N, the products' exact degree, from one
    evaluation of the rhs difference with eps as a column, and taken to
    degree N by one matmul; with no coefficient difference it is the rhs
    difference at degree N, keeping its source.  B(0) y0 and each y0^(j)
    at degree 2N are formed once.
    """
    (a, b), N = fam.interval, y0.N
    nodes, B0y0 = _grid_data(2 * N, a, b)[0], apply_B(inst0.B, y0)[:, 0]

    @lru_cache(maxsize=None)
    def y0_2N(j):
        return y0.derivative(j).resample(2 * N).values

    def at(insts, rhs_diff, dA2N):
        eps = np.array([inst.eps for inst in insts])
        if dA2N:
            h = _eval_exprs(rhs_diff, nodes, eps, a, b)
            for j, dA in dA2N:
                h = h - np.einsum("sikt,kjt->sijt", dA, y0_2N(j))
            hs = [GridFunction(v, fam.interval) for v in h]
            h = h @ cheb.bary_matrix(nodes, _grid_data(N, a, b)[0]).T
            rhs = [GridFunction(v, fam.interval) for v in h]
        else:
            hs = rhs = GridFunction.from_exprs(rhs_diff, fam.interval, N,
                                               eps=eps)
        c_deltas = [(inst.c - inst0.c) - (apply_B(inst.B, y0)[:, 0] - B0y0)
                    for inst in insts]
        return hs, rhs, c_deltas
    return at


def _perturbation(fam: ProblemFamily, inst0, y0: GridFunction):
    """`_perturbations` of one eps instance, as a function of the instance
    and its `_coeff_diffs`: h and c_delta."""
    stack = _perturbations(fam, inst0, y0)

    def at(inst, diffs):
        hs, _, c_deltas = stack([inst], _diff_exprs(fam, inst.eps)[0],
                                [(j, d.resample(2 * d.N).values[None])
                                 for j, d in diffs])
        return hs[0], c_deltas[0]
    return at


def _discrepancy_norms(resids: list, bvecs: list, idx: HolderIndex,
                       M: int) -> list:
    """||resid||_{n,alpha} + |bvec| of each pair, the norms as one stack."""
    return [v.total + float(np.linalg.norm(bvec))
            for v, bvec in zip(holder_norms(resids, idx, M), bvecs)]


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
    return _discrepancy_norms([resid], [bvec], fam.idx, M)[0]


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


def _walk(fam: ProblemFamily, eps_sequence: list, N: int, M: int, inst0,
          y0: GridFunction | None):
    """Per stack of eps of eps_sequence, in its order: the instances, the
    pairs (j, A_j(., eps) - A_j(., 0)) of the symbolic coefficient
    differences that do not fold to zero (`_diff_exprs`) and (j, their
    values at the degree-2N nodes, (k, m, m, 2N+1)), and, when y0 (the
    solution of the eps = 0 instance inst0) is given, the stack's sweep
    records.

    The eps on each side of 0 share their differences, built once.  They
    are walked in stacks of `stack_size` eps (every eps of a default sweep
    up to N = 128, seven at N = 256, one at N = 512), each instantiated at once
    (`instantiate_stack`), its differences evaluated with eps as a column,
    its perturbations formed together (`_perturbations`) and its delta
    solves factored by one call (`factor`).  A record's delta = y(eps) -
    y(0) solves the exactly-cancelled perturbation data, avoiding loss of
    significance at tiny eps; solve failures are recorded as data.
    """
    size, (a, b) = stack_size(fam.m, N), fam.interval
    nodes = _grid_data(2 * N, a, b)[0]
    perturb = _perturbations(fam, inst0, y0) if y0 is not None else None
    for _, group in itertools.groupby(eps_sequence, lambda e: e == 0.0):
        group = list(group)
        rhs_diff, coeff_diffs = _diff_exprs(fam, group[0])
        for s in range(0, len(group), size):
            eps = np.array(group[s:s + size])
            insts = instantiate_stack(fam, eps.tolist(), N)
            dA2N = [(j, _eval_exprs(d, nodes, eps, a, b))
                    for j, d in coeff_diffs]
            records = []
            if perturb is not None:
                hs, rhs, c_deltas = perturb(insts, rhs_diff, dA2N)
                records = _records(fam, factor(
                    replace(inst, rhs=f, c=c)
                    for inst, f, c in zip(insts, rhs, c_deltas)), hs, M)
            yield insts, coeff_diffs, dA2N, records


def _records(fam: ProblemFamily, deltas: list, hs: list, M: int) -> list:
    """The sweep records of `Factored` delta instances with perturbations
    hs, solved one by one, their error and discrepancy norms taken as two
    stacks (`holder_norms`)."""
    rows = []
    for delta in deltas:
        try:
            rows.append(solve_bvp_direct(delta))
        except (ConditionZeroViolated, SolveRejected) as err:
            rows.append(SweepRecord(delta.eps, None, None, None, None, None,
                                    failure=type(err).__name__))
    ok = [k for k, r in enumerate(rows) if not isinstance(r, SweepRecord)]
    errors = holder_norms([rows[k].y for k in ok],
                          HolderIndex(fam.idx.n + fam.r, fam.idx.alpha), M)
    ds = _discrepancy_norms([hs[k] for k in ok], [deltas[k].c for k in ok],
                            fam.idx, M)
    for k, error, d in zip(ok, errors, ds):
        rows[k] = SweepRecord(deltas[k].eps, error.total, d,
                              error.total / d if d > 0 else None,
                              rows[k].margin, rows[k].residual)
    return rows


def two_sided_sweep(fam: ProblemFamily, eps_sequence=None, N: int = 32,
                    M: int = DEFAULT_SAMPLES) -> SweepReport:
    """Error-vs-discrepancy ratios along an eps sweep, in decreasing eps.

    Raises ConditionZeroViolated when the unperturbed problem is
    ill-posed; solve failures at individual eps are recorded as data.
    """
    inst0 = instantiate(fam, 0.0, N)
    res0 = solve_bvp_direct(inst0)
    records = [rec for *_, stack in _walk(
        fam, _descending(fam, eps_sequence), N, M, inst0, res0.y)
        for rec in stack]
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
    solvable: bool              # (*): ZERO_TAIL_LEN solves after failures
    errors_tend_to_zero: bool   # empirical (**), on those solves
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

    One `_walk` down the eps sequence instantiates each eps and builds its
    coefficient differences once, with the sweep records when Condition (0)
    holds.  From each stack of eps it measures the Condition I norms
    ||A_j(eps) - A_j(0)||_{n,alpha} (one `holder_norms` stack per j), the
    Condition II deviation max |(B(eps) - B(0)) y| over the probes y (one
    matmul of B(eps)'s matrix by the probe stack per eps) and Theorem 2's
    P(eps): the actions -(L(eps) - L(0)) y of every eps and probe, one einsum
    per j of the degree-2N differences and probe derivatives, normed as one
    stack.
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
        margin, y0 = err.margin, None
    else:
        margin, y0 = res0.margin, res0.y
    probes = default_probes(fam, N)
    # each probe's component-major node values, as apply_B reads them
    Y = np.array([y.values.reshape(-1, 1) for y in probes])
    B0Y = (boundary_matrix(inst0.B, N) @ Y)[:, :, 0]
    err_idx = HolderIndex(idx.n + fam.r, idx.alpha)
    probe_norms = [v.total for v in holder_norms(probes, err_idx, M)]
    K = algebra_constant(idx)
    deriv_norms = [[v.total for v in holder_norms(
        [y.derivative(j) for y in probes], idx, M)] for j in range(fam.r)]
    deriv_sums = [max(col) for col in zip(*deriv_norms)]
    c2 = max(K * ds / pn for ds, pn in zip(deriv_sums, probe_norms))

    @lru_cache(maxsize=None)
    def probes_2N(j):   # y^(j) of every probe at the degree-2N nodes
        return np.array([y.derivative(j).resample(2 * N).values
                          for y in probes])

    condI, condII, P, records = [], [], [], []
    for insts, diffs, dA2N, recs in _walk(fam, eps_sequence, N, M, inst0,
                                          y0):
        rows = [[0.0] * fam.r for _ in insts]
        eps = np.array([inst.eps for inst in insts])
        for j, d in diffs:
            gs = GridFunction.from_exprs(d, fam.interval, N, eps=eps)
            for row, v in zip(rows, holder_norms(gs, idx, M)):
                row[j] = v.total
        condI += rows
        for inst in insts:
            dev = (boundary_matrix(inst.B, N) @ Y)[:, :, 0] - B0Y
            condII.append(max([0.0] + [float(np.linalg.norm(d))
                                       for d in dev]))
        acts = []   # -(L(eps) - L(0)) y, (eps, probe, m, 1, 2N+1)
        for n, (j, dA) in enumerate(dA2N):
            term = np.einsum("eikt,pkjt->epijt", dA, probes_2N(j))
            acts = acts - term if n else term * -1.0
        act_norms = holder_norms([GridFunction(v, fam.interval)
                                  for a in acts for v in a], idx, M)
        for k in range(len(insts)):
            P.append(max([0.0] + [v.total / pn for v, pn in zip(
                act_norms[k * len(probes):], probe_norms)]))
        records += recs

    condI_ok = all(tends_to_zero([norms[j] for norms in condI],
                                 criterion_final_factor)
                   for j in range(fam.r))
    condII_ok = tends_to_zero(condII, criterion_final_factor)
    cond0_ok = y0 is not None
    # the theorem speaks of small eps: read the rows after the last failure
    last = max((k for k, r in enumerate(records) if r.failure), default=-1)
    tail = records[last + 1:]
    solvable = cond0_ok and len(tail) >= ZERO_TAIL_LEN
    errors_ok = solvable and tends_to_zero([r.error for r in tail])
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
