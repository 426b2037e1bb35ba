"""Chebyshev-Gauss-Lobatto grids, barycentric interpolation, spectral
differentiation, and Clenshaw-Curtis quadrature on an interval [a, b].

Nodes are kept in ascending order of t throughout.
"""
from __future__ import annotations

import numpy as np


def lobatto_nodes(N: int, a: float = -1.0, b: float = 1.0) -> np.ndarray:
    """N+1 Chebyshev-Gauss-Lobatto nodes on [a, b], ascending."""
    j = np.arange(N + 1)
    return a + (b - a) * 0.5 * (1.0 - np.cos(np.pi * j / N))


def bary_weights(N: int) -> np.ndarray:
    """Barycentric weights for the CGL nodes (up to a common factor)."""
    w = (-1.0) ** np.arange(N + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def bary_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix E with (E @ values) = interpolant evaluated at x.

    Exact (a copy row) when an evaluation point coincides with a node.
    One (len(x), N+1) buffer holds x - nodes, then the ratios, then E.
    """
    weights = bary_weights(len(nodes) - 1)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cols = np.minimum(np.searchsorted(nodes, x), len(nodes) - 1)
    exact_rows = np.flatnonzero(nodes[cols] == x)
    E = np.subtract.outer(x, nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights, E, out=E)
        E /= np.sum(E, axis=1, keepdims=True)
    E[exact_rows, :] = 0.0
    E[exact_rows, cols[exact_rows]] = 1.0
    return E


def diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix via the barycentric formula."""
    weights = bary_weights(len(nodes) - 1)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (weights[None, :] / weights[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def _values_to_coeffs(N: int):
    """Factors of the values -> coefficients map at ascending CGL nodes:
    coefficients = scale * ((values * halve) @ C.T)."""
    j = np.arange(N + 1)
    # ascending node j corresponds to x_j = -cos(pi j / N)
    C = np.cos(np.outer(j, np.pi * j / N)) * ((-1.0) ** j)[:, None]
    halve = np.ones(N + 1)
    halve[0] = halve[-1] = 0.5
    scale = np.full(N + 1, 2.0 / N)
    scale[0] = scale[-1] = 1.0 / N
    return C, halve, scale


def cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev series coefficients from values at ascending CGL nodes.

    Operates on the last axis.
    """
    C, halve, scale = _values_to_coeffs(values.shape[-1] - 1)
    return scale * ((values * halve) @ C.T)


def clenshaw_curtis_weights(N: int, a: float = -1.0,
                            b: float = 1.0) -> np.ndarray:
    """Quadrature weights over the N+1 CGL nodes on [a, b].

    Integrates the degree-N interpolant exactly.
    """
    k = np.arange(N + 1)
    moments = np.zeros(N + 1)
    even = k % 2 == 0
    moments[even] = 2.0 / (1.0 - k[even] ** 2)
    # weight vector = moments composed with the values->coeffs map
    C, halve, scale = _values_to_coeffs(N)
    w = (moments * scale) @ C * halve
    return w * (b - a) / 2.0


def antiderivative_coeffs(coeffs: np.ndarray, a: float, b: float) -> np.ndarray:
    """Coefficients of the antiderivative vanishing at t=a (last axis)."""
    N = coeffs.shape[-1] - 1
    c = np.concatenate([coeffs, np.zeros(coeffs.shape[:-1] + (2,),
                                         dtype=coeffs.dtype)], axis=-1)
    out = np.zeros(coeffs.shape[:-1] + (N + 2,), dtype=complex)
    k = np.arange(1, N + 2)
    out[..., 1:] = (c[..., 0:N + 1] - c[..., 2:N + 3]) / (2.0 * k)
    out[..., 1] = c[..., 0] - c[..., 2] / 2.0
    # fix value at x=-1 (t=a): T_k(-1) = (-1)^k
    signs = (-1.0) ** np.arange(N + 2)
    out[..., 0] = -np.sum(out[..., 1:] * signs[1:], axis=-1)
    return out * (b - a) / 2.0
