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
from itertools import groupby

import numpy as np

from . import chebyshev as cheb
from . import expr as ex

DEFAULT_SAMPLES = 1024
MIN_SEMINORM_SAMPLES = 64
NUDGE_FRACTION = 1e-12
_ROUNDOFF_SLACK = 64 * np.finfo(float).eps
NORM_STACK_BYTES = 512 << 10  # sampled values per stack of `holder_norms`


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


def _require_degree(N: int, r: int = 0) -> None:
    """Raise unless N >= max(floor, r): an interpolant needs degree 8, and
    an equation of order r collocated at degree N < r has no equation row
    left."""
    floor = 8
    if N < max(floor, r):
        least = f"r = {r}" if r > floor else str(floor)
        raise ValueError(f"degree must be >= {least}, got {N}")


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


def _eval_exprs(sources: np.ndarray, ts: np.ndarray, eps,
                a: float, b: float) -> np.ndarray:
    """The entries' values at ts, (rows, cols, len(ts)) at a float eps.  At
    a 1-D array of k eps values, one such stack per eps, (k, rows, cols,
    len(ts)): each entry is evaluated once with eps as a (k, 1) column, and
    an entry that does not mention eps at one eps only.  Its points are ts
    nudged off its powabs centres, searched at each eps only where a powabs
    argument mentions eps (a (k, len(ts)) grid only where a centre exists),
    else once, at the first eps.  An array of one eps is read as its float,
    with its bits and at its cost."""
    at = eps.tolist() if isinstance(eps, np.ndarray) else [eps]
    out = np.empty(np.shape(eps) + sources.shape + (len(ts),), dtype=complex)
    for idx in np.ndindex(sources.shape):
        e, pts = sources[idx], ts
        by_eps = len(at) > 1 and ex.mentions(e, "eps")
        if args := ex.powabs_args(e):
            moving = any(ex.mentions(u, "eps") for u in args)
            grids = [_nudge(ts, ex.singular_centers(e, x), a, b)
                     for x in (at if moving else at[:1])]
            pts = (grids[0] if len(grids) == 1 or all(g is ts for g in grids)
                   else np.array(grids))
        out[(...,) + idx + (slice(None),)] = ex.evaluate(
            e, pts, eps[:, None] if by_eps else at[0])
    return out


def _entrywise(f, *arrays) -> np.ndarray:
    """The object array of f over the entries of arrays of one shape."""
    out = np.empty(arrays[0].shape, dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = f(*(arr[idx] for arr in arrays))
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

    # -- construction ------------------------------------------------------

    @classmethod
    def from_exprs(cls, exprs, interval, N: int, eps=0.0):
        """The interpolant of expressions at a float eps; at a 1-D array of
        eps, the list of one interpolant per eps (`_eval_exprs`)."""
        _require_degree(N)
        srcs = np.asarray(exprs, dtype=object)
        if srcs.ndim == 0:
            srcs = srcs.reshape(1, 1)
        a, b = float(interval[0]), float(interval[1])
        nodes, _ = _grid_data(N, a, b)
        values = _eval_exprs(srcs, nodes, eps, a, b)
        if isinstance(eps, np.ndarray):
            return [cls(v, (a, b), sources=srcs, eps=x)
                    for v, x in zip(values, eps)]
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
        """Values at arbitrary points, shape (rows, cols, len(ts)); node
        values with a zero imaginary part are interpolated in real
        arithmetic, to real values, with no complex copy of the matrix."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self.sources is not None:
            return _eval_exprs(self.sources, ts, self.eps, self.a, self.b)
        v = self.values if self.values.imag.any() else self.values.real
        return v @ cheb.bary_matrix(self.nodes, ts).T

    def resample(self, N: int) -> "GridFunction":
        if N == self.N:
            return self
        return GridFunction(self.eval_at(_grid_data(N, self.a, self.b)[0]),
                            self.interval, sources=self.sources, eps=self.eps)

    # -- calculus ------------------------------------------------------------

    def derivative(self, k: int = 1) -> "GridFunction":
        """k-th derivative; symbolic when sources are known, else spectral."""
        if k == 0:
            return self
        if self.sources is not None:
            d = GridFunction.from_exprs(_entrywise(ex.diff_t, self.sources),
                                        self.interval, self.N, eps=self.eps)
        else:
            d = GridFunction(self.values @ self.diffmat.T, self.interval)
        return d.derivative(k - 1)

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
        sources = None if self.sources is None else _entrywise(
            lambda e: ex.mul(ex.Const(complex(c)), e), self.sources)
        return GridFunction(self.values * c, self.interval,
                            sources=sources, eps=self.eps)


def interpolate(e, interval, N: int) -> GridFunction:
    """Build a GridFunction at eps = 0 from an expression or string, or a
    (rows, cols) nested list or array of them."""
    parsed = _entrywise(
        lambda v: ex.parse_expression(v) if isinstance(v, str) else v,
        np.asarray(e, dtype=object))
    return GridFunction.from_exprs(parsed, interval, N)


def product(f: GridFunction, g: GridFunction) -> GridFunction:
    """Pointwise matrix product of the node values at degree N_f + N_g, the
    degree of the exact product: each factor is resampled there."""
    if (f.a, f.b) != (g.a, g.b):
        raise ValueError("interval mismatch")
    if f.shape[1] != g.shape[0]:
        raise ShapeError(f"shapes {f.shape} and {g.shape} not composable")
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
    ts = np.sort(np.concatenate([a + (b - a) * np.arange(M + 1) / M, nodes]))
    # drop repeated and near-coincident points: pairs separated by
    # ~eps_machine turn interpolation roundoff into spurious difference
    # quotients (np.sort, not np.unique, which imports numpy.ma)
    ts = ts[np.concatenate([[True], np.diff(ts) > 1e-9 * (b - a)])]
    ET = np.ascontiguousarray(cheb.bary_matrix(nodes, ts).T, dtype=complex)
    ts.flags.writeable = ET.flags.writeable = False
    return ts, ET


_PAIR_BLOCK = 32    # points per block of the seminorm's branch and bound
_PAIR_CHUNK = 256   # block pairs per batch: 128 KiB per (pair, side, point) array
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=8)
def _pair_grid(key: bytes, alpha: float):
    """_pair_max's read-only data of the points ts (as bytes): gaps h, h**alpha,
    blocks pad and T, (1 + 64u) / gap**alpha, pairs near and seed anchors."""
    ts = np.frombuffer(key)
    h, P, B = np.diff(ts), len(ts), _PAIR_BLOCK
    pad = np.minimum(np.arange(-(-P // B) * B), P - 1).reshape(-1, B)
    T, reps = ts[pad], np.append(pad[:, 0], P - 1)
    I, J = np.indices((len(T), len(T)))
    gap = np.where(I < J, T[J, 0] - T[I, -1], np.where(I == J, h.min(), np.inf))
    out = (h, np.power(h, alpha), pad, T, (1.0 + _ROUNDOFF_SLACK) / gap**alpha,
           np.append(np.flatnonzero(I == J), np.flatnonzero(J == I + 1)), reps,
           np.power(np.abs(ts[reps] - ts[::P - 1, None]), alpha))
    for a in out:
        a.flags.writeable = False
    return out


def _pair_max(V: np.ndarray, ts: np.ndarray, alpha: float) -> np.ndarray:
    """Row by row, max over i < j of |V[:, j] - V[:, i]| / (ts[j] - ts[i])**alpha,
    with the bits of each row's exact all-pairs maximum alone.

    ts must increase strictly; rows with no nonzero imaginary part are
    scanned as reals; a NaN sample gives NaN, an infinite one inf.  At alpha
    = 1: the largest adjacent slope, as no chord is steeper than its gaps.
    Else, after a seed of adjacent pairs and chords from both ends, block
    pairs I <= J of _PAIR_BLOCK points go _PAIR_CHUNK at a time while their
    bound, times 1 + 64u, beats their row's best: |dv| <= S / gap**alpha and,
    if J - I <= 1, L**alpha S**(1-alpha) (S: hypot of the spreads of Re and
    Im, L: the largest adjacent slope, over both blocks).  Only points whose
    own bound (the farthest reach of the other block's box over the distance
    to it**alpha; NaN if I = J) beats the best are evaluated, on the side with
    fewer.  Rows go in groups of 4 _PAIR_CHUNK _PAIR_BLOCK values (256 KiB)
    per array: 30 rows at P = 1055, so a default sweep's 20 form one group.
    """
    P, B, nb = len(ts), _PAIR_BLOCK, -(-len(ts) // _PAIR_BLOCK)
    if len(V) > (step := max(1, 4 * _PAIR_CHUNK * B // max(P, nb * nb))):
        return np.concatenate([_pair_max(V[s:s + step], ts, alpha)
                               for s in range(0, len(V), step)])
    V = V if np.iscomplexobj(V) and V.imag.any() else V.real
    dv = np.abs(V[:, 1:] - V[:, :-1])
    if alpha == 1.0 or P < 3:
        return (dv / np.power(np.diff(ts), alpha)).max(1, initial=0.0)
    h, ha, pad, T, slack, near, reps, ends = _pair_grid(ts.tobytes(), alpha)
    box = np.array([[f.reduceat(p, pad[:, 0], 1) for f in (np.maximum, np.minimum)]
                    for p in ((V.real, V.imag) if np.iscomplexobj(V) else (V,))])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        L = np.maximum.reduceat(dv / h, np.minimum(pad[:, 0], P - 2), 1)
        L = np.maximum(np.append(L, np.maximum(L[:, :-1], L[:, 1:]), 1), _TINY)
        S = np.maximum(box[:, 0, :, :, None], box[:, 0, :, None]) - np.minimum(
            box[:, 1, :, :, None], box[:, 1, :, None])
        S = (np.hypot(*S) if len(S) == 2 else S[0]).reshape(len(V), -1)
        bound = S * slack.ravel()
        Sk = np.maximum(S[:, near], _TINY)
        bound[:, near] = np.fmin(bound[:, near], L**alpha * (
            Sk / Sk**alpha) * (1.0 + _ROUNDOFF_SLACK))
        best = (dv / ha).max(1, initial=0.0)
        sub = np.where(np.isfinite(best), np.maximum(best, np.fmax.reduce(np.abs(
            V[:, None, reps] - V[:, ::P - 1, None]) / ends, (1, 2))), best)
        f = np.flatnonzero(bound > sub[:, None])   # a NaN bound is 0 * inf
        b = bound.ravel()[f]
        del bound, S, dv
        o = np.argsort(sub[f // (nb * nb)] / b)
        for c in (o[j:j + _PAIR_CHUNK] for j in range(0, len(o), _PAIR_CHUNK)):
            c = c[b[c] > sub[f[c] // (nb * nb)]]   # still above the best
            e, *blk = np.unravel_index(f[c], (len(V), nb, nb))
            blk = np.stack(blk, 1)                     # block pairs I <= J
            X, Tb = V[e[:, None, None], pad[blk]], T[blk]   # (pair, side, point)
            D = [np.maximum(hl[0] - x, x - hl[1]) for hl, x in zip(
                box[:, :, e[:, None], blk[:, ::-1], None], (X.real, X.imag)
                if len(box) == 2 else (X,))]
            D = np.hypot(*D) if len(D) == 2 else D[0]
            D /= np.maximum(Tb[:, ::-1, :1] - Tb, Tb - Tb[:, ::-1, -1:]) ** alpha
            live = ~(D * (1.0 + _ROUNDOFF_SLACK) <= sub[e, None, None])
            live[np.arange(len(e)), live.sum(2).argmax(1)] = 0
            pts = np.flatnonzero(live)   # flat (pair, side, point) of live points
            for m in (pts[i:i + 2 * _PAIR_CHUNK]
                      for i in range(0, len(pts), 2 * _PAIR_CHUNK)):
                d = np.abs(Tb.reshape(-1, B)[m // B ^ 1] - Tb.ravel()[m, None])
                q = np.abs(X.reshape(-1, B)[m // B ^ 1] - X.ravel()[m, None])
                q /= np.power(np.where(d > 0, d, np.inf), alpha)
                np.maximum.at(sub, e[m // (2 * B)], q.max(1))
    return sub


def holder_norm(g: GridFunction, idx: HolderIndex,
                M: int = DEFAULT_SAMPLES) -> NormValue:
    """Sum of derivative sup-norms j=0..n plus the Holder seminorm of g^(n):
    `holder_norms` of the stack of one."""
    return holder_norms([g], idx, M)[0]


def holder_norms(gs: list, idx: HolderIndex,
                 M: int = DEFAULT_SAMPLES) -> list:
    """The `holder_norm` of each function of gs, which share one degree,
    interval and shape and all keep expressions or none, in stacks of as
    many as have samples within NORM_STACK_BYTES (a default sweep's 20
    scalar functions at P = 1055 make one stack); each value has the bits
    of its function's norm alone.

    Each derivative order of a stack is sampled at once at the points of
    _sample_grid at max(M, N+1), more than a degree-N function has
    coefficients: one matmul of the stacked node values by the cached ET
    (derivatives by D), or one `_eval_exprs` with eps as a column per run of
    consecutive functions sharing one sources object, a run of one included
    (derivatives symbolic).  Each order's sup parts take one max over the
    stack.  The seminorm, the maximum over all pairs of points and so a
    lower bound of the true one, is `_pair_max`'s: by stack at alpha = 1,
    else one call for every function and entry of gs.
    """
    if M < MIN_SEMINORM_SAMPLES:
        raise ValueError(f"sampling count {M} below {MIN_SEMINORM_SAMPLES}")
    if not gs:
        return []
    g = gs[0]
    ts, ET = _sample_grid(g.N, g.a, g.b, max(M, g.N + 1))
    step = max(1, NORM_STACK_BYTES // (16 * len(ts) * np.prod(g.shape)))
    sups, last = [], []
    for stack in (gs[s:s + step] for s in range(0, len(gs), step)):
        vals = (np.array([f.values for f in stack]) if g.sources is None
                else None)
        runs = [list(r) for _, r in groupby(stack, lambda f: id(f.sources))]
        srcs = [run[0].sources for run in runs]
        eps = [np.array([f.eps for f in run]) for run in runs]
        for order in range(idx.n + 1):
            if vals is not None:
                S = vals @ ET
            else:   # one run's samples are taken as they are, uncopied
                S = [_eval_exprs(src, ts, e, g.a, g.b)
                     for src, e in zip(srcs, eps)]
                S = S[0] if len(S) == 1 else np.concatenate(S)
            sups.append(np.sum(np.max(np.abs(S), axis=-1), axis=(1, 2)))
            if order < idx.n and vals is not None:
                vals = vals @ g.diffmat.T
            elif order < idx.n:
                srcs = [_entrywise(ex.diff_t, src) for src in srcs]
        S = S.reshape(-1, len(ts))   # alpha < 1: every stack's rows, one scan
        last.append(_pair_max(S, ts, 1.0) if idx.alpha == 1.0 else
                    S if S.imag.any() else S.real.copy())
    sups = [np.concatenate(sups[k::idx.n + 1]) for k in range(idx.n + 1)]
    last = np.concatenate(last)
    semis = last if idx.alpha == 1.0 else _pair_max(last, ts, idx.alpha)
    semi = 0.0   # entry by entry, in the order of a one-function sum
    for part in semis.reshape(len(gs), -1).T:
        semi = semi + part
    total = sum(sups) + semi
    return [NormValue(tuple(map(float, parts)), float(sm), float(tot))
            for parts, sm, tot in zip(zip(*sups), semi, total)]


def algebra_constant(idx: HolderIndex) -> float:
    """Certified submultiplicativity constant for the scalar norm."""
    return 2.0 ** (idx.n + 1) * (idx.n + 1) ** 2
