"""Parameter-dependent boundary-value problem families.

A family bundles the r-th order system coefficients A_0..A_{r-1}(t, eps),
the right-hand side f(t, eps), a representable boundary operator (point
evaluations of derivatives plus integral terms) and its target vector
c(eps).  `instantiate` freezes everything at one eps value; `gallery`
provides six named test families.
"""
from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import chebyshev as cheb
from . import expr as ex
from .grid import (GridFunction, HolderIndex, ShapeError, _grid_data,
                   _point_row)


class ConfigError(ValueError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _entry_path(path: str, i: int, j: int) -> str:
    """The config's key path of entry (i, j) of the expressions at path:
    path[i] for a vector key (rhs, rhs_at_zero, target), else path[i][j]."""
    vector = path.split("[")[0] in ("rhs", "rhs_at_zero", "target")
    return f"{path}[{i}]" if vector else f"{path}[{i}][{j}]"


def _expr_matrix(entries, rows, cols, path="", eps_only=False):
    """A rows x cols object array of parsed expression strings; a list of
    rows of any other shape is a ConfigError at path, and an entry that is
    not a valid expression string one at its own path, as is an entry that
    mentions t when eps_only."""
    if not (isinstance(entries, list) and len(entries) == rows
            and all(isinstance(row, list) and len(row) == cols
                    for row in entries)):
        raise ConfigError(f"expected a {rows}x{cols} matrix of expressions",
                          path)
    arr = np.empty((rows, cols), dtype=object)
    for i, j in np.ndindex(rows, cols):
        src, at = entries[i][j], _entry_path(path, i, j)
        if not isinstance(src, str):
            raise ConfigError(f"expected an expression string, got {src!r}",
                              at)
        try:
            arr[i, j] = ex.parse_expression(src)
        except ex.ExprError as err:
            raise ConfigError(str(err), at) from err
        if eps_only and ex.mentions(arr[i, j], "t"):
            raise ConfigError(f"{src!r} mentions t; the entry is in eps only",
                              at)
    return arr


def _expr_vector(entries, rows, path="", eps_only=False):
    """A rows x 1 `_expr_matrix` of a list of rows expression strings."""
    if len(entries) != rows:
        raise ConfigError(f"expected {rows} expression(s), got "
                          f"{len(entries)}", path)
    return _expr_matrix([[e] for e in entries], rows, 1, path, eps_only)


@dataclass(frozen=True)
class PointTermFamily:
    order: int
    point: float
    coeff: np.ndarray  # (rm, m) object array of Exprs in eps


@dataclass(frozen=True)
class IntegralTermFamily:
    order: int
    density: np.ndarray  # (rm, m) object array of Exprs in (t, eps)


@dataclass(frozen=True)
class BoundaryOperatorFamily:
    point_terms: tuple
    integral_terms: tuple


@dataclass(frozen=True)
class ProblemFamily:
    """Built and checked by family_from_config."""
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

    def keyed_exprs(self, key: str, eps: float):
        """(config key, expressions) of "coeffs" or "rhs" at eps: the
        key_at_zero override at eps = 0 when given."""
        if eps == 0.0 and getattr(self, key + "_at_zero") is not None:
            key += "_at_zero"
        return key, getattr(self, key)

    def coeff_exprs(self, eps: float):
        return self.keyed_exprs("coeffs", eps)[1]

    def rhs_exprs(self, eps: float):
        return self.keyed_exprs("rhs", eps)[1]

    def target_vector(self, eps: float) -> np.ndarray:
        return _keyed(lambda e: _eval_eps_matrix(e, eps), self.target,
                      "target", [eps])[:, 0]


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
    # boundary_matrix by degree, each built once
    matrices: dict = field(default_factory=dict, compare=False, repr=False)


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


def _keyed(build, exprs: np.ndarray, key: str, eps_list: list):
    """build(exprs), the (rows, cols) expressions of config key `key` at the
    eps of eps_list.  At one eps, an entry with no value there, as
    sin(t/eps) at eps = 0, is a ConfigError at its key path (`_entry_path`);
    at eps = 0 a coeffs or rhs entry also names the _at_zero key that would
    give its limit.  At several eps the EvalError stands."""
    try:
        return build(exprs)
    except ex.EvalError as err:
        if len(eps_list) > 1:
            raise
        for i, j in np.ndindex(exprs.shape):
            try:
                build(exprs[i:i + 1, j:j + 1])
            except ex.EvalError:
                break
        (eps,), name = eps_list, key.split("[")[0]
        hint = (f"; if it has no eps -> 0 limit, give {name}_at_zero"
                if eps == 0 and name in ("coeffs", "rhs") else "")
        raise ConfigError(f"{err} at eps={eps}{hint}",
                          _entry_path(key, i, j)) from err


def instantiate(fam: ProblemFamily, eps: float, N: int) -> ProblemInstance:
    """Freeze a family at one parameter value and interpolation degree."""
    return instantiate_stack(fam, [eps], N)[0]


def instantiate_stack(fam: ProblemFamily, eps_list: list, N: int) -> list:
    """`instantiate` at each eps of eps_list: each coefficient, rhs and
    density evaluated once on the node grid with eps as a column
    (`_eval_exprs`, which keeps the bits of each eps alone), and each
    eps-only matrix at each eps, or once if no entry mentions eps.  Several
    eps that leave [0, eps0), mix eps = 0 and eps > 0 (two sets of
    expressions, `keyed_exprs`) or meet an expression with no value are
    instantiated one at a time, so that the error names the first such
    eps."""
    one_side = (all(0.0 <= eps < fam.eps0 for eps in eps_list)
                and len({eps == 0.0 for eps in eps_list}) == 1)
    if len(eps_list) > 1:
        if one_side:
            with suppress(ex.EvalError):
                return _instantiate_stack(fam, eps_list, N)
        return [instantiate(fam, eps, N) for eps in eps_list]
    if not one_side:
        raise ValueError(f"eps={eps_list[0]} outside [0, {fam.eps0})")
    return _instantiate_stack(fam, eps_list, N)


def _instantiate_stack(fam: ProblemFamily, eps_list: list, N: int) -> list:
    def grids(exprs):
        return GridFunction.from_exprs(exprs, fam.interval, N,
                                       eps=np.array(eps_list))

    def eps_only(exprs):
        if len(eps_list) > 1 and any(ex.mentions(e, "eps")
                                     for e in exprs.flat):
            return [_eval_eps_matrix(exprs, eps) for eps in eps_list]
        return [_eval_eps_matrix(exprs, eps_list[0])] * len(eps_list)

    bnd = fam.boundary
    ckey, cexprs = fam.keyed_exprs("coeffs", eps_list[0])
    coeffs = [_keyed(grids, c, f"{ckey}[{j}]", eps_list)
              for j, c in enumerate(cexprs)]
    rkey, rexprs = fam.keyed_exprs("rhs", eps_list[0])
    rhs = _keyed(grids, rexprs, rkey, eps_list)
    points = [_keyed(eps_only, t.coeff, f"boundary.point_terms[{i}].coeff",
                     eps_list) for i, t in enumerate(bnd.point_terms)]
    densities = [_keyed(grids, t.density,
                        f"boundary.integral_terms[{i}].density", eps_list)
                 for i, t in enumerate(bnd.integral_terms)]
    targets = _keyed(eps_only, fam.target, "target", eps_list)
    out = []
    for k, eps in enumerate(eps_list):
        B = BoundaryOperator(
            tuple(PointTerm(t.order, t.point, p[k])
                  for t, p in zip(bnd.point_terms, points)),
            tuple(IntegralTerm(t.order, d[k])
                  for t, d in zip(bnd.integral_terms, densities)),
            fam.r * fam.m, fam.m, fam.interval)
        out.append(ProblemInstance(
            fam.r, fam.m, fam.interval, tuple(c[k] for c in coeffs), rhs[k],
            B, targets[k][:, 0], eps, N))
    return out


@lru_cache(maxsize=16)
def _quadrature(Q: int, a: float, b: float):
    """Degree-Q nodes on [a, b] and Clenshaw-Curtis weights, read-only (not
    _grid_data's nodes, which come with an unused differentiation matrix)."""
    t = cheb.lobatto_nodes(Q, a, b)
    w = cheb.clenshaw_curtis_weights(Q, a, b)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def apply_B(B: BoundaryOperator, y: GridFunction) -> np.ndarray:
    """Apply a boundary operator to an (m, k) GridFunction; returns (rm, k):
    the rows a solve at y's degree N enforces, `boundary_matrix(B, N)`,
    applied to y's node values."""
    if y.shape[0] != B.m:
        raise ShapeError(f"expected {B.m} rows, got {y.shape[0]}")
    vec = y.values.transpose(0, 2, 1).reshape(B.m * (y.N + 1), -1)
    return boundary_matrix(B, y.N) @ vec


def boundary_matrix(B: BoundaryOperator, N: int) -> np.ndarray:
    """Matrix of the boundary operator on stacked node values.

    Acts on vec(y) with component-major layout: entry p*(N+1)+i holds
    component p at node i.  Shape (rm, m*(N+1)).  A term of order q applies
    D to its rows q times, as `solver.factor` does: O(q N^2) per row, and
    more accurate than one row times D^q.  Built once per B and N, and
    read-only.
    """
    if N in B.matrices:
        return B.matrices[N]
    a, b = map(float, B.interval)
    nodes, D = _grid_data(N, a, b)
    w = _quadrature(N, a, b)[1]
    out = np.zeros((B.size, B.m, N + 1), dtype=complex)
    for term in B.point_terms:
        row = _point_row(N, a, b, term.point)[0]
        for _ in range(term.order):
            row = row @ D
        out += term.coeff[:, :, None] * row
    for term in B.integral_terms:
        rows = w * term.density.eval_at(nodes)    # (rm, m, N+1)
        for _ in range(term.order):
            rows = rows @ D
        out += rows
    out = out.reshape(B.size, -1)
    out.flags.writeable = False
    B.matrices[N] = out
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


def _integer(v, least: int = 0) -> int:
    """v as an int >= least; a bool or a number with a fractional part is
    not an integer."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"expected an integer, got {v!r}")
    if int(v) < least:
        raise ValueError(f"must be >= {least}, got {v!r}")
    return int(v)


def _real(v) -> float:
    """float(v); a bool is not a real number, though float reads it."""
    if isinstance(v, bool):
        raise ValueError(f"expected a real number, got {v!r}")
    return float(v)


def _array(v) -> list:
    """v if it is a JSON array; a string or an object is not read as one."""
    if not isinstance(v, list):
        raise TypeError(f"expected a JSON array, got {type(v).__name__} "
                        f"{v!r}")
    return v


def _known(obj, keys: str, at: str = "") -> None:
    """A ConfigError at the path of a dict obj's first key not in keys."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in keys.split():
            raise ConfigError("unknown key", at + key)


def family_from_config(cfg: dict, name: str = "") -> ProblemFamily:
    _known(cfg, "r m n alpha interval coeffs coeffs_at_zero rhs rhs_at_zero "
                "boundary target eps0")
    r, m = (_at(cfg, key, lambda v: _integer(v, 1)) for key in "rm")
    n = _at(cfg, "n", _integer)
    idx = _at(cfg, "alpha", lambda v: HolderIndex(n, _real(v)))
    interval = _at(cfg, "interval", lambda v: tuple(map(_real, _array(v))))
    if len(interval) != 2 or not -np.inf < interval[0] < interval[1] < np.inf:
        raise ConfigError("interval must be [a, b] with finite a < b",
                          "interval")
    a, b = interval

    def order(v):
        k = _integer(v)
        if k > n + r:
            raise ValueError(f"derivative order {k} outside [0, {n + r}]")
        return k

    def point(v):
        t = _real(v)
        if not a <= t <= b:
            raise ValueError(f"point {t} outside [{a}, {b}]")
        return t

    def matrices(key):
        mats = _at(cfg, key, _array)
        if len(mats) != r:
            raise ConfigError(f"expected {r} matrices, got {len(mats)}", key)
        return tuple(_expr_matrix(mats[j], m, m, f"{key}[{j}]")
                     for j in range(r))

    coeff_arrays = matrices("coeffs")
    coeffs0 = matrices("coeffs_at_zero") if "coeffs_at_zero" in cfg else None
    rhs = _expr_vector(_at(cfg, "rhs", _array), m, "rhs")
    rhs0 = (_expr_vector(_at(cfg, "rhs_at_zero", _array), m, "rhs_at_zero")
            if "rhs_at_zero" in cfg else None)
    bnd = _at(cfg, "boundary",
              lambda v: {"point_terms": [], "integral_terms": [], **v})
    _known(bnd, "point_terms integral_terms", "boundary.")

    def terms(kind, keys):
        for i, p in enumerate(_at(bnd, kind, _array, "boundary.")):
            _known(p, keys, at := f"boundary.{kind}[{i}].")
            yield p, at

    points = tuple(
        PointTermFamily(_at(p, "order", order, at), _at(p, "point", point, at),
                        _expr_matrix(_at(p, "coeff", at=at), r * m, m,
                                     at + "coeff", eps_only=True))
        for p, at in terms("point_terms", "order point coeff"))
    integrals = tuple(
        IntegralTermFamily(_at(p, "order", order, at),
                           _expr_matrix(_at(p, "density", at=at), r * m, m,
                                        at + "density"))
        for p, at in terms("integral_terms", "order density"))
    if not points and not integrals:
        raise ConfigError("boundary operator needs at least one term",
                          "boundary")
    target = _expr_vector(_at(cfg, "target", _array), r * m, "target",
                          eps_only=True)
    eps0 = _at(cfg, "eps0", _real)
    if not 0 < eps0 < np.inf:
        raise ConfigError(f"eps0 must be finite and > 0, got {eps0}", "eps0")
    return ProblemFamily(
        r=r, m=m, idx=idx, interval=interval,
        coeffs=coeff_arrays, rhs=rhs,
        boundary=BoundaryOperatorFamily(points, integrals),
        target=target, eps0=eps0, name=name or "config",
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
