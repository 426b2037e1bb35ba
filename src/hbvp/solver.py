"""Collocation solver for problem instances.

Two routes share one bordered collocation solve.  The direct route
applies it to the r-th order system with its boundary rows; the companion
route to the first-order system x' + A x = g with x(a) given (r = 1), and
closes B's conditions through the fundamental and characteristic matrices.
The bordered solve factors a stack of instances of one shape in one call
(`factor`); a single solve is the stack of one.
Each returns one SolveResult: the solution y, the matrix solution Z (L Z =
0, B Z = I) and the Condition (0) margin its gate decided on.  Differing in
formulation and boundary handling, they cross-validate field for field.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import chebyshev as cheb
from .grid import GridFunction, _grid_data, product
from .problem import (BoundaryOperator, PointTerm, ProblemInstance, apply_B,
                      boundary_matrix)

RESIDUAL_RTOL = 1e-6
CONDITION_ZERO_RTOL = 1e-10
STACK_BYTES = 8 << 20   # collocation matrices of a stack (`stack_size`)


class ConditionZeroViolated(RuntimeError):
    """The characteristic matrix is numerically singular."""

    def __init__(self, margin: float, tol: float):
        super().__init__(
            f"homogeneous problem has a nontrivial kernel: "
            f"characteristic-matrix margin {margin:.3e} <= tol {tol:.3e}")
        self.margin = margin
        self.tol = tol


class SolveRejected(RuntimeError):
    """Residual acceptance failed at the requested degree."""

    def __init__(self, residual: float, threshold: float, N: int):
        super().__init__(f"residual {residual:.3e} exceeds {threshold:.3e} "
                         f"at degree {N}")
        self.residual = residual
        self.N = N


@dataclass(frozen=True)
class CompanionSystem:
    A: GridFunction   # (rm, rm) block companion
    g: GridFunction   # (rm, 1), col(0, .., 0, f)


@dataclass(frozen=True)
class FundamentalMatrix:
    X: GridFunction   # (rm, rm), X' + A X = 0, X(a) = I
    xp: np.ndarray    # (rm, 1, N+1) node values, x_p' + A x_p = g, x_p(a) = 0


@dataclass(frozen=True)
class CharacteristicMatrix:
    M: np.ndarray     # (rm, rm)
    margin: float     # sigma_min(M) / ||M||_2, the Condition (0) margin


@dataclass(frozen=True)
class InstanceStack:
    """Instances of one r, m, degree N and `_dtype`, factored in one call."""
    instances: tuple
    dtype: type

    @property
    def N(self) -> int:
        return self.instances[0].N


@dataclass(frozen=True)
class Factored:
    """An instance with its row of a stack's factorization (`factor`), which
    `solve_bvp_direct` reads instead of factoring again."""
    instance: ProblemInstance
    margin: float             # 0 where the system is singular
    cols: np.ndarray          # (m, N+1, 1 + rm) in its `_dtype`, zeros
                              # where singular
    mat: np.ndarray           # its system [K; Bmat] and column 0's right-
    b: np.ndarray             # hand side [f; c], for `_refined`

    def __getattr__(self, name):   # eps, N, ...: the instance's
        return getattr(self.instance, name)


@dataclass(frozen=True)
class SolveResult:
    y: GridFunction   # (m, 1)
    Z: GridFunction   # (m, rm), L Z = 0 and B Z = I: the matrix solution Y
    residual: float
    N: int
    route: str
    margin: float     # Condition (0) margin of the gate the solve passed


def build_companion(instance: ProblemInstance) -> CompanionSystem:
    """Block companion form of x' + A x = g for x = col(y, y', ..)."""
    r, m, N = instance.r, instance.m, instance.N
    s = r * m
    A = np.zeros((s, s, N + 1), dtype=complex)
    eye = np.eye(m)
    for blk in range(r - 1):
        rows = slice(blk * m, (blk + 1) * m)
        cols = slice((blk + 1) * m, (blk + 2) * m)
        A[rows, cols] = -eye[:, :, None]
    for j in range(r):
        A[(r - 1) * m:, j * m:(j + 1) * m] = instance.coeffs[j].values
    g = np.zeros((s, 1, N + 1), dtype=complex)
    g[(r - 1) * m:] = instance.rhs.values
    return CompanionSystem(GridFunction(A, instance.interval),
                           GridFunction(g, instance.interval))


def _first_order(cs: CompanionSystem) -> ProblemInstance:
    """x' + A x = g with the one boundary condition x(a) = 0, as an
    instance with r = 1 and m = rm."""
    s, interval = cs.A.shape[0], cs.A.interval
    B = BoundaryOperator((PointTerm(0, interval[0], np.eye(s)),), (), s, s,
                         interval)
    return ProblemInstance(1, s, interval, (cs.A,), cs.g, B,
                           np.zeros(s, dtype=complex), 0.0, cs.A.N)


def fundamental_matrix(cs: CompanionSystem) -> FundamentalMatrix:
    """X and x_p from one bordered solve of the first-order instance: x_p
    solves it with x_p(a) = 0, and X the homogeneous system with X(a) = I.
    A singular collocation matrix raises LinAlgError."""
    f = factor([_first_order(cs)])[0]
    if f.margin == 0.0:
        raise np.linalg.LinAlgError("singular first-order collocation matrix")
    cols = f.cols
    return FundamentalMatrix(
        GridFunction(cols[:, :, 1:].transpose(0, 2, 1), cs.A.interval),
        cols[:, None, :, 0])


def characteristic_matrix(B: BoundaryOperator, X: GridFunction) -> CharacteristicMatrix:
    """Boundary operator applied to the y-part of each column of X, with
    the margin the companion route decides Condition (0) on."""
    m = B.m
    Ytop = GridFunction(X.values[:m, :], X.interval)
    M = apply_B(B, Ytop)
    return CharacteristicMatrix(M, float(_margin(M)))


def _margin(M: np.ndarray) -> np.ndarray:
    """sigma_min(M) / sigma_max(M), which M^{-1} shares with M, for each of
    a stack of square matrices."""
    sigma = np.linalg.svd(M, compute_uv=False)
    return sigma[..., -1] / np.maximum(sigma[..., 0], 1e-300)


def _require_condition_zero(margin: float, N: int) -> None:
    """Raise ConditionZeroViolated unless the margin exceeds
    max(CONDITION_ZERO_RTOL, 100 N^2 u), u the float64 machine epsilon: the
    margin of a singular problem is roundoff that grows like N^2 u (F3,
    direct route: 5.7e-13 at N = 32, 7.0e-10 at N = 512).  A NaN margin
    raises."""
    tol = max(CONDITION_ZERO_RTOL, 100 * N ** 2 * float(np.finfo(float).eps))
    if not margin > tol:
        raise ConditionZeroViolated(margin, tol)


def apply_L(instance: ProblemInstance, y: GridFunction,
            N: int | None = None) -> GridFunction:
    """y^(r) + sum_j A_{r-j} y^(r-j) for an (m, k) function y, each product
    at degree N by `product`'s rule: by default N_f + N_g."""
    out = y.derivative(instance.r)
    for j in range(instance.r):
        out = out + product(instance.coeffs[j], y.derivative(j), N)
    return out


def _residual(instance: ProblemInstance, y: GridFunction):
    """Sup residual of L y against the instance's right-hand side.

    Measured at the collocation nodes the discretization enforced, against
    the node values of the data (the system actually solved): a backward
    error of the discrete problem.  Rough data is thereby judged at its
    own resolution; inter-node discretization error is reported separately
    by the norm-level diagnostics, not here.  L y is formed at degree N.
    """
    keep = _kept_rows(instance.r, 1, instance.N)
    diff = (apply_L(instance, y, instance.N).values[..., keep]
            - instance.rhs.values[..., keep])
    return float(np.max(np.abs(diff)))


def _accept(residual: float, rhs_scale: float) -> bool:
    return residual <= RESIDUAL_RTOL * (1.0 + rhs_scale)


def _result(instance: ProblemInstance, y: GridFunction, Z: GridFunction,
            residual: float, route: str, margin: float) -> SolveResult:
    """Accept y by its residual, or reject it at the instance's degree."""
    rhs_scale = float(np.max(np.abs(instance.rhs.values)))
    if not _accept(residual, rhs_scale):
        raise SolveRejected(residual, RESIDUAL_RTOL * (1 + rhs_scale),
                            instance.N)
    return SolveResult(y, Z, residual, instance.N, route, margin)


@lru_cache(maxsize=16)
def _diff_power(N: int, a: float, b: float, j: int) -> np.ndarray:
    """D^j (j >= 1) at degree N on [a, b], read-only: each power built once
    per degree, as `grid._grid_data` builds D."""
    D = _grid_data(N, a, b)[1]
    out = D if j == 1 else D @ _diff_power(N, a, b, j - 1)
    out.flags.writeable = False
    return out


def _dtype(instances) -> type:
    """float where every coefficient value, rhs value, boundary row and
    target of the instances has a zero imaginary part, else complex: the
    one arithmetic of their collocation matrices, factorization and solve."""
    parts = (p for inst in instances for p in (
        *(c.values for c in inst.coeffs), inst.rhs.values, inst.c,
        boundary_matrix(inst.B, inst.N)))
    return complex if any(p.imag.any() for p in parts) else float


def collocation_matrix(instance) -> np.ndarray:
    """Square collocation matrix of (L, B) with boundary bordering, of an
    instance, or the stack of an InstanceStack's, in the stack's `_dtype`:
    A_0 on the diagonal, and one einsum per higher coefficient over the
    stacked coefficient values with D's cached power (`_diff_power`).

    Component-major layout; collocation rows at ceil(r/2) leading and
    floor(r/2) trailing nodes are replaced by the rm boundary rows.
    """
    insts = getattr(instance, "instances", (instance,))
    r, m, N = insts[0].r, insts[0].m, insts[0].N
    a, b = insts[0].coeffs[0].interval
    stacked = isinstance(instance, InstanceStack)
    dtype = instance.dtype if stacked else _dtype(insts)
    part = np.real if dtype is float else np.asarray   # the zero imag dropped
    big = np.empty((len(insts), m, N + 1, m, N + 1), dtype=dtype)
    big[:] = np.kron(np.eye(m), _diff_power(N, a, b, r)).reshape(
        m, N + 1, m, N + 1)
    node = np.arange(N + 1)
    for j in range(r):
        A = part(np.stack([inst.coeffs[j].values for inst in insts]))
        if j:
            big += np.einsum("spqi,ik->spiqk", A, _diff_power(N, a, b, j))
        else:   # (s, p, i, q, i), indexed as (i, s, p, q)
            big[:, :, node, :, node] += A.transpose(3, 0, 1, 2)
    big = big.reshape(len(insts), m * (N + 1), m * (N + 1))
    mats = np.concatenate(
        [big[:, _kept_rows(r, m, N)],
         part(np.stack([boundary_matrix(inst.B, N) for inst in insts]))],
        axis=1)
    return mats if stacked else mats[0]


def _kept_rows(r: int, m: int, N: int) -> np.ndarray:
    node_keep = np.arange((r + 1) // 2, N + 1 - r // 2)
    return np.concatenate([p * (N + 1) + node_keep for p in range(m)])


def stack_size(m: int, N: int) -> int:
    """The most instances with m components at degree N whose collocation
    matrices fit in STACK_BYTES when complex, one at least."""
    return max(1, STACK_BYTES // (16 * (m * (N + 1)) ** 2))


def factor(instances) -> list:
    """Each instance (of one r, m and N) as a `Factored`: the Condition (0)
    margin and the columns (m, N+1, 1 + rm) of its system [K; Bmat], solved
    for [f; c] and [0; I_rm] by one np.linalg.solve call for them all.

    Column 0 is y.  The rest, Z, has K Z = 0 and Bmat Z = I, so its initial
    rows E Z (y^(k)(a), k < r) are M^{-1}.  Where the stacked solve raises,
    the systems are solved one by one, and a singular one keeps zero
    columns, so margin 0.  Real and complex instances (`_dtype`) are
    factored as two stacks, so that each keeps the bits of its solve alone.
    """
    insts = tuple(instances)
    kinds = [_dtype([inst]) for inst in insts]
    if len(set(kinds)) > 1:
        parts = {k: iter(factor(i for i, ki in zip(insts, kinds) if ki is k))
                 for k in set(kinds)}
        return [next(parts[k]) for k in kinds]
    r, m, N = insts[0].r, insts[0].m, insts[0].N
    mats = collocation_matrix(InstanceStack(insts, kinds[0]))
    keep = _kept_rows(r, m, N)
    f = np.array([np.concatenate([inst.rhs.values[:, 0, :].reshape(-1)[keep],
                                  inst.c]) for inst in insts])
    rhs = np.zeros(mats.shape[:2] + (1 + r * m,), dtype=mats.dtype)
    rhs[:, :, 0] = f.real if kinds[0] is float else f
    rhs[:, -r * m:, 1:] = np.eye(r * m)
    try:
        sol = np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError:
        sol = np.zeros_like(rhs)
        for i in range(len(insts)):
            with suppress(np.linalg.LinAlgError):
                sol[i] = np.linalg.solve(mats[i], rhs[i])
    cols = sol.reshape(len(insts), m, N + 1, 1 + r * m)
    row = np.eye(1, N + 1)[0]   # node 0 is t = a
    EZ = []
    for _ in range(r):
        EZ.append(row @ cols[..., 1:])
        row = row @ insts[0].coeffs[0].diffmat
    margins = _margin(np.concatenate(EZ, axis=1)).tolist()
    return list(map(Factored, insts, margins, cols, mats, rhs[..., 0]))


def _refined(f: Factored) -> np.ndarray:
    """Column 0 of f after one step of iterative refinement: its residual
    on [K; Bmat] y = [f; c] formed in extended precision, and the
    correction solved for with K in f's dtype."""
    y = f.cols[..., 0]
    ext = np.longdouble if f.mat.dtype == float else np.clongdouble
    res = f.b - f.mat.astype(ext) @ y.reshape(-1)
    d = np.linalg.solve(f.mat, res.astype(f.mat.dtype))
    return y + d.reshape(y.shape)


def solve_bvp_direct(instance) -> SolveResult:
    """Square collocation of the r-th order system itself, at the
    instance's degree, gated by Condition (0) from the same factorization,
    which also gives the matrix solution Z.  A ProblemInstance is factored
    as a stack of one; a `Factored` one is read from its stack's.  A y
    over the residual gate is refined once (`_refined`) and judged again:
    at high N the LU's own backward error reaches the gate."""
    f = instance if isinstance(instance, Factored) else factor([instance])[0]
    inst, cols = f.instance, f.cols
    _require_condition_zero(f.margin, inst.N)
    y = GridFunction(cols[:, None, :, 0].copy(), inst.interval)
    residual = _residual(inst, y)
    if not _accept(residual, float(np.max(np.abs(inst.rhs.values)))):
        y = GridFunction(_refined(f)[:, None], inst.interval)
        residual = _residual(inst, y)
    Z = GridFunction(cols[:, :, 1:].transpose(0, 2, 1).copy(), inst.interval)
    return _result(inst, y, Z, residual, "direct", f.margin)


def solve_bvp(instance: ProblemInstance) -> SolveResult:
    """Companion route: y is the top block of X v + x_p with M v
    closing the boundary conditions, and Z the top block of X M^{-1}."""
    m, interval = instance.m, instance.interval
    cs = build_companion(instance)
    fund = fundamental_matrix(cs)
    X, xp = fund.X.values, fund.xp
    cm = characteristic_matrix(instance.B, fund.X)
    _require_condition_zero(cm.margin, instance.N)
    xp_top = GridFunction(xp[:m], interval)
    v = np.linalg.solve(cm.M, instance.c - apply_B(instance.B, xp_top)[:, 0])
    x = GridFunction(np.einsum("ijt,j->it", X, v)[:, None] + xp, interval)
    Z = np.einsum("ijt,jk->ikt", X[:m], np.linalg.inv(cm.M))
    # the residual is the first-order system's: this route discretized it
    return _result(instance, GridFunction(x.values[:m], interval),
                   GridFunction(Z, interval), _residual(_first_order(cs), x),
                   "companion", cm.margin)


def recover_coefficients(X: GridFunction) -> GridFunction:
    """-X' X^{-1}, nodewise; inverts the companion construction."""
    P = X.values.transpose(2, 0, 1)
    dets = np.abs(np.linalg.det(P))
    if dets.min() <= 1e-12 * max(dets.max(), 1e-300):
        raise np.linalg.LinAlgError(
            f"fundamental matrix nearly singular (min |det| = {dets.min():.3e})")
    Pd = X.derivative().values.transpose(2, 0, 1)
    # -Xd X^{-1} = -(X^{-T} Xd^T)^T, nodewise
    A = -np.linalg.solve(P.transpose(0, 2, 1),
                         Pd.transpose(0, 2, 1)).transpose(0, 2, 1)
    return GridFunction(A.transpose(1, 2, 0), X.interval)


def liouville_defect(cs: CompanionSystem, X: GridFunction) -> float:
    """Max drift of log|det X(t)| + int_a^t Re tr A along the grid."""
    P = X.values.transpose(2, 0, 1)
    logdet = np.log(np.abs(np.linalg.det(P)))
    trA = np.einsum("iit->t", cs.A.values).real
    a, b = X.interval
    co = cheb.antiderivative_coeffs(cheb.cheb_coeffs(trA + 0j), a, b)
    x = 2 * (X.nodes - a) / (b - a) - 1
    integral = np.polynomial.chebyshev.chebval(x, co).real
    drift = logdet + integral
    return float(np.max(np.abs(drift - drift[0])))


def fredholm_nullity(instance: ProblemInstance) -> int:
    """Nullity of the square collocation matrix of (L, B)."""
    sigma = np.linalg.svd(collocation_matrix(instance), compute_uv=False)
    return int(np.sum(sigma <= 1e-10 * sigma[0]))
