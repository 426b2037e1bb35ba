"""Functions on [a, b] as Chebyshev interpolants, and their Holder norms.

A GridFunction is matrix- or vector-valued and carries node values at
Chebyshev-Gauss-Lobatto points.  When an entry originated from a symbolic
expression, the expression is kept so that derivatives and off-grid
evaluation are exact; otherwise derivatives fall back to spectral
differentiation and off-grid evaluation to barycentric interpolation.

Norm convention: the norm of a vector/matrix-valued function is the sum
of the scalar norms of its entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import chebyshev as cheb
from . import expr as ex

DEFAULT_SAMPLES = 1024
MIN_SEMINORM_SAMPLES = 64
NUDGE_FRACTION = 1e-12
_ROUNDOFF_SLACK = 64 * np.finfo(float).eps


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class HolderIndex:
    """Index pair (n, alpha) of the space C^{n,alpha}."""
    n: int
    alpha: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"smoothness order must be >= 0, got {self.n}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class NormValue:
    """Holder norm split into derivative sup-norms and the seminorm."""
    sup_parts: tuple
    seminorm: float
    total: float


@lru_cache(maxsize=64)
def _grid_data(N: int, a: float, b: float):
    nodes = cheb.lobatto_nodes(N, a, b)
    D = cheb.diff_matrix(nodes)
    nodes.flags.writeable = D.flags.writeable = False
    return nodes, D


@lru_cache(maxsize=64)
def _point_row(N: int, a: float, b: float, t: float) -> np.ndarray:
    """The (1, N+1) matrix evaluating a degree-N interpolant at t, read-only:
    every boundary matrix evaluates the same few points over and over."""
    row = cheb.bary_matrix(_grid_data(N, a, b)[0], [t])
    row.flags.writeable = False
    return row


def _nudge(ts: np.ndarray, centers, a: float, b: float) -> np.ndarray:
    """Shift sample points off powabs zeros by 1e-12*(b-a), also where a
    beta > 0 leaves no singularity: F6's rhs at eps = 0 reads 1.0e-6 at the
    node 0.49999999999999994, not 7.45e-9."""
    if not centers:
        return ts
    delta = NUDGE_FRACTION * (b - a)
    ts = np.array(ts, dtype=float)
    for c in centers:
        hit = np.abs(ts - c) < delta
        if np.any(hit):
            ts[hit] = c + delta if c + delta <= b else c - delta
    return ts


def _eval_exprs(sources: np.ndarray, ts: np.ndarray, eps: float,
                a: float, b: float) -> np.ndarray:
    out = np.empty(sources.shape + (len(ts),), dtype=complex)
    for idx in np.ndindex(sources.shape):
        e = sources[idx]
        pts = _nudge(ts, ex.singular_centers(e, eps), a, b)
        out[idx] = ex.evaluate(e, pts, eps)
    return out


class GridFunction:
    """Immutable interpolant of shape (rows, cols) on [a, b]."""

    def __init__(self, values: np.ndarray, interval, sources=None,
                 eps: float = 0.0):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 3:
            raise ShapeError("values must have shape (rows, cols, N+1)")
        self.a, self.b = float(interval[0]), float(interval[1])
        if not self.a < self.b:
            raise ValueError("interval must satisfy a < b")
        self.values = values
        self.shape = values.shape[:2]
        self.N = values.shape[2] - 1
        self.sources = sources
        self.eps = float(eps)
        self._deriv = None
        self._samples = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_exprs(cls, exprs, interval, N: int,
                   eps: float = 0.0) -> "GridFunction":
        if N < 8:
            raise ValueError(f"degree must be >= 8, got {N}")
        srcs = np.asarray(exprs, dtype=object)
        if srcs.ndim == 0:
            srcs = srcs.reshape(1, 1)
        a, b = float(interval[0]), float(interval[1])
        nodes, _ = _grid_data(N, a, b)
        values = _eval_exprs(srcs, nodes, eps, a, b)
        return cls(values, (a, b), sources=srcs, eps=eps)

    @property
    def interval(self):
        return (self.a, self.b)

    @property
    def nodes(self) -> np.ndarray:
        return _grid_data(self.N, self.a, self.b)[0]

    @property
    def diffmat(self) -> np.ndarray:
        return _grid_data(self.N, self.a, self.b)[1]

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, ts) -> np.ndarray:
        """Values at arbitrary points, shape (rows, cols, len(ts))."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self.sources is not None:
            return _eval_exprs(self.sources, ts, self.eps, self.a, self.b)
        return self.values @ cheb.bary_matrix(self.nodes, ts).T

    def resample(self, N: int) -> "GridFunction":
        if N == self.N:
            return self
        nodes, _ = _grid_data(N, self.a, self.b)
        if self.sources is not None:
            return GridFunction(self.eval_at(nodes), self.interval,
                                sources=self.sources, eps=self.eps)
        return GridFunction(self.eval_at(nodes), self.interval)

    # -- calculus ------------------------------------------------------------

    def derivative(self, k: int = 1) -> "GridFunction":
        """k-th derivative; symbolic when sources are known, else spectral."""
        if k == 0:
            return self
        if self._deriv is None:
            if self.sources is not None:
                dsrc = np.empty(self.sources.shape, dtype=object)
                for idx in np.ndindex(self.sources.shape):
                    dsrc[idx] = ex.diff_t(self.sources[idx])
                d = GridFunction.from_exprs(dsrc, self.interval, self.N,
                                            eps=self.eps)
            else:
                d = GridFunction(self.values @ self.diffmat.T, self.interval)
            self._deriv = d
        return self._deriv.derivative(k - 1)

    # -- arithmetic ------------------------------------------------------------

    def _binary(self, other: "GridFunction", op):
        """op of the node values at the larger degree; the result keeps no
        expression."""
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")
        if (self.a, self.b) != (other.a, other.b):
            raise ValueError("interval mismatch")
        N = max(self.N, other.N)
        f, g = self.resample(N), other.resample(N)
        return GridFunction(op(f.values, g.values), self.interval)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def scale(self, c) -> "GridFunction":
        sources = None
        if self.sources is not None:
            sources = np.empty(self.sources.shape, dtype=object)
            for idx in np.ndindex(self.sources.shape):
                sources[idx] = ex.mul(ex.Const(complex(c)), self.sources[idx])
        return GridFunction(self.values * c, self.interval,
                            sources=sources, eps=self.eps)


def interpolate(e, interval, N: int) -> GridFunction:
    """Build a GridFunction at eps = 0 from an expression or string, or a
    (rows, cols) nested list or array of them."""
    arr = np.asarray(e, dtype=object)
    parsed = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        v = arr[idx]
        parsed[idx] = ex.parse_expression(v) if isinstance(v, str) else v
    return GridFunction.from_exprs(parsed, interval, N)


def product(f: GridFunction, g: GridFunction, N: int | None = None
            ) -> GridFunction:
    """Pointwise matrix product of the node values at degree N, by default
    N_f + N_g, the degree of the exact product."""
    if (f.a, f.b) != (g.a, g.b):
        raise ValueError("interval mismatch")
    if f.shape[1] != g.shape[0]:
        raise ShapeError(f"shapes {f.shape} and {g.shape} not composable")
    if N is None:
        N = f.N + g.N
    vals = np.einsum("ikt,kjt->ijt", f.resample(N).values,
                     g.resample(N).values)
    return GridFunction(vals, f.interval)


def min_samples(N: int) -> int:
    """The least --samples M worth asking for at degree N: the sampling
    floor, and N + 1, below which the norms sample at N + 1 anyway."""
    return max(MIN_SEMINORM_SAMPLES, N + 1)


@lru_cache(maxsize=16)
def _sample_grid(N: int, a: float, b: float, M: int):
    """M+1 uniform points on [a, b] merged with the degree-N nodes, the one
    point set of every sampled norm, and the transpose ET of the matrix
    evaluating a degree-N interpolant there, so that values @ ET samples it.

    ET is stored complex and C-ordered: the copy numpy would otherwise make
    of a real E.T for every complex matmul, with the same bits.  Each entry
    holds an (N+1, P) matrix, hence the smaller bound than _grid_data's.
    """
    nodes = _grid_data(N, a, b)[0]
    ts = np.unique(np.concatenate([a + (b - a) * np.arange(M + 1) / M, nodes]))
    # drop near-coincident points: pairs separated by ~eps_machine
    # turn interpolation roundoff into spurious difference quotients
    ts = ts[np.concatenate([[True], np.diff(ts) > 1e-9 * (b - a)])]
    ET = np.ascontiguousarray(cheb.bary_matrix(nodes, ts).T, dtype=complex)
    ts.flags.writeable = ET.flags.writeable = False
    return ts, ET


def _sample(g: GridFunction, M: int):
    """The points of _sample_grid at max(M, N+1), more than the degree-N g
    has coefficients, and g's read-only values there, once per g and M."""
    if M < MIN_SEMINORM_SAMPLES:
        raise ValueError(f"sampling count {M} below {MIN_SEMINORM_SAMPLES}")
    if M not in g._samples:
        ts, ET = _sample_grid(g.N, g.a, g.b, max(M, g.N + 1))
        vals = (g.values @ ET if g.sources is None
                else _eval_exprs(g.sources, ts, g.eps, g.a, g.b))
        vals.flags.writeable = False
        g._samples[M] = ts, vals
    return g._samples[M]


def sup_norm(g: GridFunction, M: int = DEFAULT_SAMPLES) -> float:
    """Entrywise-sum of max absolute values at _sample's points."""
    return float(np.sum(np.max(np.abs(_sample(g, M)[1]), axis=-1)))


def _lag_one_is_max(slopes: np.ndarray, dt: np.ndarray) -> bool:
    """For alpha = 1: True when no chord spanning two or more gaps can reach
    the largest adjacent slope L.

    A chord's slope is at most the dt-weighted mean of the adjacent slopes
    it spans.  A chord over the gap m of slope L also spans a neighbouring
    gap, so L's weight is at most W = dt[m] / (dt[m] + smaller neighbouring
    dt), and every other slope is at most s2; the chord's slope is then at
    most L - (1 - W)(L - s2).  The margin must beat roundoff by 64u; L is
    finite, as _pair_max calls this only then.
    """
    m = int(np.argmax(slopes))
    L = slopes[m]
    s2 = max(slopes[:m].max(initial=0.0), slopes[m + 1:].max(initial=0.0))
    h = min((dt[j] for j in (m - 1, m + 1) if 0 <= j < len(dt)),
            default=np.inf)
    W = dt[m] / (dt[m] + h)
    return (1.0 - W) * (L - s2) > _ROUNDOFF_SLACK * L


_PAIR_BLOCK = 16   # points per block of the seminorm's branch-and-bound
_PAIR_CHUNK = 16   # block pairs evaluated per step
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=8)
def _block_pairs(nb: int):
    """np.triu_indices(nb), read-only: the block pairs I <= J of _pair_max."""
    I, J = np.triu_indices(nb)
    I.flags.writeable = J.flags.writeable = False
    return I, J


def _pair_max(vals: np.ndarray, ts: np.ndarray, alpha: float) -> float:
    """max over i < j of |vals[j] - vals[i]| / (ts[j] - ts[i])**alpha.

    ts must increase strictly.  Real samples are scanned as reals; a NaN one
    gives NaN, an infinite one inf.  The adjacent pairs seed the best ratio
    (for alpha = 1 they may certify it).  Over blocks of _PAIR_BLOCK points
    (the last padded with the last sample), block pair I <= J has ratios <=
    (1 + 64u) min(S / gap**alpha, L**alpha S**(1-alpha)), as |dv| <= min(S,
    L d) at distance d: S = spread of Re + spread of Im over both blocks, gap
    = ts[first of J] - ts[last of I] (the least spacing if I = J), L = the
    largest gap slope from I's first point to J's last (L, S >= the least
    normal float in the second term).  Block pairs are evaluated _PAIR_CHUNK
    at a time in descending bound, as an all-pairs scan would, until no
    bound beats the best: the exact all-pairs maximum, in O((P/16)**2) memory.
    """
    vals = vals if vals.imag.any() else vals.real
    h, dv = np.diff(ts), np.abs(np.diff(vals))
    dt = np.power(h, alpha)
    ratio = dv / dt
    best = float(ratio.max(initial=0.0))
    if (len(ts) < 3 or not np.isfinite(best)
            or (alpha == 1.0 and _lag_one_is_max(ratio, dt))):
        return best
    nb = -(-len(ts) // _PAIR_BLOCK)
    pad = np.minimum(np.arange(nb * _PAIR_BLOCK), len(ts) - 1)
    V, T = vals[pad].reshape(nb, -1), ts[pad].reshape(nb, -1)
    I, J = _block_pairs(nb)
    spread = 0.0
    for part in (V.real, V.imag) if np.iscomplexobj(V) else (V,):
        hi, lo = part.max(1), part.min(1)
        spread = spread + (np.maximum(hi[I], hi[J]) - np.minimum(lo[I], lo[J]))
    gap = np.power(np.where(I < J, T[J, 0] - T[I, -1], h.min()), alpha)
    with np.errstate(over="ignore"):   # an inf slope or bound prunes nothing
        s = np.maximum(np.append(dv / h, 0.0)[pad], _TINY).reshape(nb, -1)
        g = np.append(0.0, s[:-1].max(1))[:, None]
        L = np.maximum.accumulate(np.tril(np.broadcast_to(g, (nb, nb)), -1))
        L = np.maximum(L[J, I], s[:, :-1].max(1)[J])
        S = np.maximum(spread, _TINY)
        bound = np.fmin(spread / gap, L**alpha * (S / S**alpha))
        bound *= 1.0 + _ROUNDOFF_SLACK
    order = np.flatnonzero(~(bound <= best))   # a NaN bound prunes nothing
    order = order[np.argsort(bound[order])[::-1]]
    for k in range(0, len(order), _PAIR_CHUNK):
        c = order[k:k + _PAIR_CHUNK]
        if bound[c[0]] <= best:
            break
        d = T[J[c], None, :] - T[I[c], :, None]
        d = np.power(np.where(d > 0, d, np.inf), alpha)
        q = np.abs(V[J[c], None, :] - V[I[c], :, None]) / d
        best = max(best, float(q.max()))
    return best


def holder_seminorm(g: GridFunction, idx: HolderIndex,
                    M: int = DEFAULT_SAMPLES) -> float:
    """Entrywise-sum sup of |g^(n)(t2)-g^(n)(t1)| / |t2-t1|^alpha.

    The exact maximum over all pairs of _sample's points, a certified
    lower bound of the true seminorm, found by _pair_max's branch and bound
    over blocks of samples (spread over distance and slope, real-valued for
    real samples) in O((P/16)**2 + 16**3) memory for P points, not O(P**2).
    """
    ts, vals = _sample(g.derivative(idx.n), M)
    total = 0.0
    for i, j in np.ndindex(g.shape):
        total += _pair_max(vals[i, j], ts, idx.alpha)
    return total


def holder_norm(g: GridFunction, idx: HolderIndex,
                M: int = DEFAULT_SAMPLES) -> NormValue:
    """Sum of derivative sup-norms j=0..n plus the Holder seminorm; g^(n)'s
    sup part and the seminorm read the same memoized samples of _sample."""
    sup_parts = tuple(sup_norm(g.derivative(j), M) for j in range(idx.n + 1))
    semi = holder_seminorm(g, idx, M)
    return NormValue(sup_parts, semi, float(sum(sup_parts) + semi))


def algebra_constant(idx: HolderIndex) -> float:
    """Certified submultiplicativity constant for the scalar norm."""
    return 2.0 ** (idx.n + 1) * (idx.n + 1) ** 2
