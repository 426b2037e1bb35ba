"""Parameter-dependent boundary-value problem families.

A family bundles the r-th order system coefficients A_0..A_{r-1}(t, eps),
the right-hand side f(t, eps), a representable boundary operator (point
evaluations of derivatives plus integral terms) and its target vector
c(eps).  `instantiate` freezes everything at one eps value; `gallery`
provides six named test families.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import chebyshev as cheb
from . import expr as ex
from .grid import GridFunction, HolderIndex, ShapeError, _grid_data


class ConfigError(ValueError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _parse(src):
    return ex.parse_expression(src) if isinstance(src, str) else src


def _expr_matrix(entries, rows, cols, path=""):
    arr = np.empty((rows, cols), dtype=object)
    try:
        for i in range(rows):
            for j in range(cols):
                arr[i, j] = _parse(entries[i][j])
    except (IndexError, TypeError) as err:
        raise ConfigError(f"expected a {rows}x{cols} matrix of expressions",
                          path) from err
    except ex.ExprError as err:
        raise ConfigError(str(err), f"{path}[{i}][{j}]") from err
    return arr


def _expr_vector(entries, rows, path=""):
    return _expr_matrix([[e] for e in entries], rows, 1, path)


@dataclass(frozen=True)
class PointTermFamily:
    order: int
    point: float
    coeff: np.ndarray  # (rm, m) object array of Exprs in eps

    def coeff_shape(self):
        return self.coeff.shape


@dataclass(frozen=True)
class IntegralTermFamily:
    order: int
    density: np.ndarray  # (rm, m) object array of Exprs in (t, eps)

    def coeff_shape(self):
        return self.density.shape


@dataclass(frozen=True)
class BoundaryOperatorFamily:
    point_terms: tuple
    integral_terms: tuple

    def validate(self, r: int, m: int, n: int, interval):
        if not self.point_terms and not self.integral_terms:
            raise ConfigError("boundary operator needs at least one term",
                              "boundary")
        a, b = interval
        for term in self.point_terms + self.integral_terms:
            if not 0 <= term.order <= n + r:
                raise ConfigError(
                    f"derivative order {term.order} outside [0, {n + r}]",
                    "boundary")
            if term.coeff_shape() != (r * m, m):
                raise ConfigError(
                    f"coefficient shape {term.coeff_shape()} != {(r*m, m)}",
                    "boundary")
        for term in self.point_terms:
            if not a <= term.point <= b:
                raise ConfigError(f"point {term.point} outside [{a}, {b}]",
                                  "boundary.point_terms")


@dataclass(frozen=True)
class ProblemFamily:
    r: int
    m: int
    idx: HolderIndex
    interval: tuple
    coeffs: tuple            # r object arrays (m, m), A_0 .. A_{r-1}
    rhs: np.ndarray          # (m, 1) object array
    boundary: BoundaryOperatorFamily
    target: np.ndarray       # (rm, 1) object array of Exprs in eps
    eps0: float
    name: str = ""
    coeffs_at_zero: tuple | None = None   # optional eps=0 slice override
    rhs_at_zero: np.ndarray | None = None

    def __post_init__(self):
        if self.r < 1 or self.m < 1:
            raise ConfigError("r and m must be >= 1")
        if self.eps0 <= 0:
            raise ConfigError("eps0 must be positive", "eps0")
        if len(self.coeffs) != self.r:
            raise ConfigError(f"need {self.r} coefficient matrices, got "
                              f"{len(self.coeffs)}", "coeffs")
        for j, c in enumerate(self.coeffs):
            if c.shape != (self.m, self.m):
                raise ConfigError(f"coefficient {j} has shape {c.shape}",
                                  f"coeffs[{j}]")
        if self.rhs.shape != (self.m, 1):
            raise ConfigError(f"rhs shape {self.rhs.shape}", "rhs")
        if self.target.shape != (self.r * self.m, 1):
            raise ConfigError(f"target shape {self.target.shape}", "target")
        self.boundary.validate(self.r, self.m, self.idx.n, self.interval)

    def coeff_exprs(self, eps: float):
        if eps == 0.0 and self.coeffs_at_zero is not None:
            return self.coeffs_at_zero
        return self.coeffs

    def rhs_exprs(self, eps: float):
        if eps == 0.0 and self.rhs_at_zero is not None:
            return self.rhs_at_zero
        return self.rhs

    def target_vector(self, eps: float) -> np.ndarray:
        return _eval_eps_matrix(self.target, eps)[:, 0]


@dataclass(frozen=True)
class PointTerm:
    order: int
    point: float
    coeff: np.ndarray  # (rm, m) complex


@dataclass(frozen=True)
class IntegralTerm:
    order: int
    density: GridFunction  # (rm, m)


@dataclass(frozen=True)
class BoundaryOperator:
    point_terms: tuple
    integral_terms: tuple
    size: int       # rm
    m: int
    interval: tuple


@dataclass(frozen=True)
class ProblemInstance:
    """One eps-slice of a family, ready for the solver."""
    r: int
    m: int
    interval: tuple
    coeffs: tuple            # r GridFunctions (m, m)
    rhs: GridFunction        # (m, 1)
    B: BoundaryOperator
    c: np.ndarray            # (rm,) complex
    eps: float
    N: int


def _eval_eps_matrix(exprs: np.ndarray, eps: float) -> np.ndarray:
    out = np.empty(exprs.shape, dtype=complex)
    for idx in np.ndindex(exprs.shape):
        out[idx] = complex(np.asarray(ex.evaluate(exprs[idx], 0.0, eps)))
    return out


def instantiate(fam: ProblemFamily, eps: float, N: int) -> ProblemInstance:
    """Freeze a family at one parameter value and interpolation degree."""
    if not 0.0 <= eps < fam.eps0:
        raise ValueError(f"eps={eps} outside [0, {fam.eps0})")
    coeffs = tuple(
        GridFunction.from_exprs(c, fam.interval, N, eps=eps)
        for c in fam.coeff_exprs(eps))
    rhs = GridFunction.from_exprs(fam.rhs_exprs(eps), fam.interval, N, eps=eps)
    points = tuple(
        PointTerm(t.order, t.point, _eval_eps_matrix(t.coeff, eps))
        for t in fam.boundary.point_terms)
    integrals = tuple(
        IntegralTerm(t.order,
                     GridFunction.from_exprs(t.density, fam.interval, N,
                                             eps=eps))
        for t in fam.boundary.integral_terms)
    B = BoundaryOperator(points, integrals, fam.r * fam.m, fam.m,
                         fam.interval)
    return ProblemInstance(fam.r, fam.m, fam.interval, coeffs, rhs, B,
                           fam.target_vector(eps), eps, N)


@lru_cache(maxsize=16)
def _quadrature(Q: int, a: float, b: float):
    """Degree-Q nodes on [a, b] and Clenshaw-Curtis weights, read-only (not
    _grid_data's nodes, which come with an unused differentiation matrix)."""
    t = cheb.lobatto_nodes(Q, a, b)
    w = cheb.clenshaw_curtis_weights(Q, a, b)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def apply_B(B: BoundaryOperator, y: GridFunction) -> np.ndarray:
    """Apply a boundary operator to an (m, k) GridFunction; returns (rm, k).

    Integral terms use Clenshaw-Curtis quadrature of order max(2N, 32),
    N the degree of y.
    """
    if y.shape[0] != B.m:
        raise ShapeError(f"expected {B.m} rows, got {y.shape[0]}")
    Q = max(2 * y.N, 32)
    out = np.zeros((B.size, y.shape[1]), dtype=complex)
    for term in B.point_terms:
        vals = y.derivative(term.order).eval_at([term.point])[..., 0]  # (m, k)
        out += term.coeff @ vals
    if B.integral_terms:
        tq, wq = _quadrature(Q, *B.interval)
        for term in B.integral_terms:
            dens = term.density.eval_at(tq)               # (rm, m, Q+1)
            yv = y.derivative(term.order).eval_at(tq)     # (m, k, Q+1)
            out += np.einsum("q,smq,mkq->sk", wq, dens, yv)
    return out


def boundary_matrix(B: BoundaryOperator, N: int) -> np.ndarray:
    """Matrix of the boundary operator on stacked node values.

    Acts on vec(y) with component-major layout: entry p*(N+1)+i holds
    component p at node i.  Shape (rm, m*(N+1)).
    """
    a, b = B.interval
    nodes, D = _grid_data(N, float(a), float(b))
    w = _quadrature(N, a, b)[1]
    powers = {0: np.eye(N + 1), 1: D}

    def Dq(q):
        if q not in powers:
            powers[q] = D @ Dq(q - 1)
        return powers[q]

    out = np.zeros((B.size, B.m * (N + 1)), dtype=complex)
    for term in B.point_terms:
        row = cheb.bary_matrix(nodes, [term.point])[0] @ Dq(term.order)
        out += np.einsum("sp,k->spk", term.coeff, row).reshape(B.size, -1)
    for term in B.integral_terms:
        dens = term.density.eval_at(nodes)    # (rm, m, N+1)
        rows = np.einsum("i,spi,ik->spk", w, dens, Dq(term.order))
        out += rows.reshape(B.size, -1)
    return out


def boundedness_certificate(B: BoundaryOperator) -> float:
    """Upper bound for |By| / ||y||_{n+r,alpha} over the representable terms."""
    total = 0.0
    for term in B.point_terms:
        total += float(np.max(np.sum(np.abs(term.coeff), axis=0)))
    for term in B.integral_terms:
        Q = max(2 * term.density.N, 64)
        tq, wq = _quadrature(Q, *B.interval)
        dens = np.abs(term.density.eval_at(tq))
        total += float(np.max(np.sum(dens @ wq, axis=0)))
    return total


# --- configuration files ----------------------------------------------------

def _at(obj, key, convert=lambda v: v, at=""):
    """convert(obj[key]); a missing key or a malformed value is a
    ConfigError at the key path at + key."""
    try:
        return convert(obj[key])
    except KeyError as err:
        raise ConfigError(f"missing key {key!r}", at + key) from err
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err), at + key) from err


def family_from_config(cfg: dict, name: str = "") -> ProblemFamily:
    r, m, n = (_at(cfg, key, int) for key in "rmn")
    alpha = _at(cfg, "alpha", float)
    interval = _at(cfg, "interval", lambda v: tuple(map(float, v)))
    if len(interval) != 2 or not interval[0] < interval[1]:
        raise ConfigError("interval must be [a, b] with a < b", "interval")

    def matrices(key):
        mats = _at(cfg, key, list)
        if len(mats) != r:
            raise ConfigError(f"expected {r} matrices, got {len(mats)}", key)
        return tuple(_expr_matrix(mats[j], m, m, f"{key}[{j}]")
                     for j in range(r))

    coeff_arrays = matrices("coeffs")
    coeffs0 = matrices("coeffs_at_zero") if "coeffs_at_zero" in cfg else None
    rhs = _expr_vector(_at(cfg, "rhs", list), m, "rhs")
    rhs0 = (_expr_vector(_at(cfg, "rhs_at_zero", list), m, "rhs_at_zero")
            if "rhs_at_zero" in cfg else None)
    bnd = _at(cfg, "boundary",
              lambda b: {"point_terms": [], "integral_terms": [], **b})

    def terms(kind):
        return [(p, f"boundary.{kind}[{i}].")
                for i, p in enumerate(_at(bnd, kind, list, "boundary."))]

    points = tuple(
        PointTermFamily(_at(p, "order", int, at), _at(p, "point", float, at),
                        _expr_matrix(_at(p, "coeff", at=at), r * m, m,
                                     at + "coeff"))
        for p, at in terms("point_terms"))
    integrals = tuple(
        IntegralTermFamily(_at(p, "order", int, at),
                           _expr_matrix(_at(p, "density", at=at), r * m, m,
                                        at + "density"))
        for p, at in terms("integral_terms"))
    target = _expr_vector(_at(cfg, "target", list), r * m, "target")
    return ProblemFamily(
        r=r, m=m, idx=HolderIndex(n, alpha), interval=interval,
        coeffs=coeff_arrays, rhs=rhs,
        boundary=BoundaryOperatorFamily(points, integrals),
        target=target, eps0=_at(cfg, "eps0", float), name=name or "config",
        coeffs_at_zero=coeffs0, rhs_at_zero=rhs0)


def load_problem(path: str) -> ProblemFamily:
    """Load a problem family from a JSON config file."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}", path) from err
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(str(err), path) from err
    if not isinstance(cfg, dict):
        raise ConfigError("top-level value must be an object", path)
    return family_from_config(cfg, name=path)


# --- gallery ----------------------------------------------------------------

def _point_rows(n_rows, specs):
    """Point terms for m=1: each spec (row, order, point, value) puts the
    scalar coefficient `value` into boundary row `row`."""
    terms = []
    for row, order, point, value in specs:
        coeff = [["0"] for _ in range(n_rows)]
        coeff[row] = [value]
        terms.append({"order": order, "point": point, "coeff": coeff})
    return terms


GALLERY_NAMES = (
    "F1_smooth_perturb",
    "F2_boundary_perturb",
    "F3_cond0_violated",
    "F4_limitI_violated",
    "F5_multipoint_integral",
    "F6_holder_rough",
)


def _gallery_config(name: str) -> dict:
    base = {"r": 2, "m": 1, "n": 0, "alpha": 1.0, "interval": [0.0, 1.0],
            "eps0": 1.0}
    if name == "F1_smooth_perturb":
        return dict(base, coeffs=[[["1+eps"]], [["0"]]], rhs=["exp(t)"],
                    boundary={"point_terms": _point_rows(2, [
                        (0, 0, 0.0, "1"), (1, 0, 1.0, "1")])},
                    target=["0", "1"])
    if name == "F2_boundary_perturb":
        return dict(base, coeffs=[[["1"]], [["0"]]], rhs=["exp(t)"],
                    boundary={"point_terms": _point_rows(2, [
                        (0, 0, 0.0, "1"), (0, 1, 0.0, "eps"),
                        (1, 0, 1.0, "1")])},
                    target=["0", "1"])
    if name == "F3_cond0_violated":
        return dict(base, coeffs=[[["0"]], [["0"]]], rhs=["0"],
                    boundary={"point_terms": _point_rows(2, [
                        (0, 0, 1.0, "1"), (0, 0, 0.0, "-1"),
                        (1, 1, 1.0, "1"), (1, 1, 0.0, "-1")])},
                    target=["0", "0"])
    if name == "F4_limitI_violated":
        return dict(base, coeffs=[[["sin(t/eps)"]], [["0"]]],
                    coeffs_at_zero=[[["0"]], [["0"]]], rhs=["1"],
                    boundary={"point_terms": _point_rows(2, [
                        (0, 0, 0.0, "1"), (1, 0, 1.0, "1")])},
                    target=["0", "0"])
    if name == "F5_multipoint_integral":
        return dict(base, coeffs=[[["1"]], [["0"]]], rhs=["(1+eps)*exp(t)"],
                    boundary={
                        "point_terms": _point_rows(2, [(0, 0, 0.25, "1")]),
                        "integral_terms": [{"order": 0,
                                            "density": [["0"], ["1+eps*t"]]}]},
                    target=["eps", "1"])
    if name == "F6_holder_rough":
        return dict(base, alpha=0.5, coeffs=[[["1"]], [["0"]]],
                    rhs=["(1+eps)*powabs(t-0.5, 0.5)"],
                    boundary={"point_terms": _point_rows(2, [
                        (0, 0, 0.0, "1"), (1, 0, 1.0, "1")])},
                    target=["0", "1"])
    raise KeyError(f"unknown gallery family {name!r}; "
                   f"choose from {GALLERY_NAMES}")


def gallery(name: str) -> ProblemFamily:
    """Named built-in test families F1..F6."""
    cfg = _gallery_config(name)
    return family_from_config(cfg, name=name)
