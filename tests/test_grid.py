"""Interpolants, derivatives, and Holder norms against brute-force oracles."""
import json
import warnings

import numpy as np
import pytest

from hbvp import cli, grid
from hbvp import expr as ex
from hbvp.analysis import two_sided_sweep
from hbvp.chebyshev import bary_matrix
from hbvp.grid import (_PAIR_BLOCK, GridFunction, HolderIndex, ShapeError,
                       _point_row, _sample_grid, algebra_constant,
                       holder_norm, holder_seminorm, interpolate, product,
                       sup_norm)
from hbvp.problem import (_gallery_config, boundary_matrix,
                          family_from_config, gallery, instantiate)


def _from_values(vals, interval=(0.0, 1.0)):
    vals = np.asarray(vals, dtype=complex)
    if vals.ndim == 1:
        vals = vals.reshape(1, 1, -1)
    return GridFunction(vals, interval)


def test_holder_index_validation():
    HolderIndex(0, 1.0)
    with pytest.raises(ValueError):
        HolderIndex(-1, 0.5)
    with pytest.raises(ValueError):
        HolderIndex(0, 0.0)
    with pytest.raises(ValueError):
        HolderIndex(0, 1.5)


def test_interpolate_polynomial_exact():
    g = interpolate("t", (0.0, 1.0), 8)
    ts = np.linspace(0, 1, 101)
    assert np.max(np.abs(g.eval_at(ts)[0, 0] - ts)) < 1e-14


def test_interpolate_sin_accuracy():
    g = interpolate("sin(t)", (0.0, np.pi), 32)
    # force the barycentric path to judge interpolation itself
    bare = _from_values(g.values[0, 0], (0.0, np.pi))
    ts = np.linspace(0, np.pi, 1000)
    assert np.max(np.abs(bare.eval_at(ts)[0, 0] - np.sin(ts))) < 1e-10


def test_interpolate_constant():
    g = interpolate("1", (0.0, 1.0), 8)
    assert np.allclose(g.values, 1.0)


def test_interpolate_rejects_low_degree():
    with pytest.raises(ValueError):
        interpolate("t", (0.0, 1.0), 4)


def test_derivative_polynomial_exact():
    g = interpolate("t^2", (0.0, 1.0), 8)
    ts = np.linspace(0, 1, 50)
    assert np.max(np.abs(g.derivative().eval_at(ts)[0, 0] - 2 * ts)) < 1e-13


def test_derivative_constant_zero():
    g = interpolate("3", (0.0, 1.0), 8)
    assert np.max(np.abs(g.derivative().values)) < 1e-14


def test_spectral_derivative_sin():
    src = interpolate("sin(t)", (0.0, np.pi), 32)
    bare = _from_values(src.values[0, 0], (0.0, np.pi))  # no symbolic source
    ts = np.linspace(0, np.pi, 200)
    err = np.max(np.abs(bare.derivative().eval_at(ts)[0, 0] - np.cos(ts)))
    assert err < 1e-9


def test_sup_norm_examples():
    one = interpolate("1", (0.0, 1.0), 8)
    ramp = interpolate("t", (0.0, 1.0), 8)
    assert abs(sup_norm(one, 64) - 1.0) < 1e-14
    assert abs(sup_norm(ramp, 64) - 1.0) < 1e-14
    s = interpolate("sin(t)", (0.0, np.pi), 32)
    assert abs(sup_norm(s, 4096) - 1.0) < 1e-6


def test_sup_norm_entrywise_sum():
    g = interpolate([["t"], ["1"]], (0.0, 1.0), 8)
    assert abs(sup_norm(g, 64) - 2.0) < 1e-14


def test_seminorm_constant_and_ramp():
    idx = HolderIndex(0, 1.0)
    const = interpolate("2", (0.0, 1.0), 8)
    ramp = interpolate("t", (0.0, 1.0), 8)
    assert holder_seminorm(const, idx, 256) < 1e-13
    assert abs(holder_seminorm(ramp, idx, 256) - 1.0) < 1e-13


def test_seminorm_refinement_flag():
    g = interpolate("sin(3*t)", (0.0, 1.0), 24)
    assert abs(holder_seminorm(g, HolderIndex(0, 1.0), 256) - 3.0) < 1e-2


def _pair_max(vals, ts, alpha):
    """grid._pair_max of the one row vals."""
    return float(grid._pair_max(np.asarray(vals)[None], ts, alpha)[0])


def _all_pairs_max(vals, ts, alpha):
    """Reference seminorm scan: every ordered pair, one P x P block."""
    dv = np.abs(vals[:, None] - vals[None, :])
    dt = np.abs(ts[:, None] - ts[None, :])
    mask = dt > 0
    np.power(dt, alpha, out=dt, where=mask)
    return float(np.divide(dv, dt, out=np.zeros_like(dv), where=mask).max())


# At alpha = 1 no chord beats the steepest adjacent gap in exact arithmetic.
# A computed quotient |fl(v_j - v_i)| / fl(t_j - t_i) takes one subtraction
# of values (componentwise if complex), one abs, one division and the
# subtraction of times, each within a factor 1 +- u of exact (u = machine
# epsilon), so a chord's computed quotient exceeds the computed adjacent
# maximum by a factor at most ((1 + u) / (1 - u))**4 < 1 + 9u.
_ALPHA_ONE_SLACK = 16 * np.finfo(float).eps


def _assert_pair_max(vals, ts, alpha, msg=None):
    """_pair_max equals the all-pairs scan bit for bit below alpha = 1; at
    alpha = 1 it equals the adjacent maximum bit for bit, which the scan's
    rounded chords may exceed by at most _ALPHA_ONE_SLACK."""
    got, want = _pair_max(vals, ts, alpha), _all_pairs_max(vals, ts, alpha)
    if alpha < 1.0:
        assert got == want, msg
        return
    adjacent = np.max(np.abs(np.diff(vals)) / np.diff(ts))
    assert got == adjacent, msg
    assert adjacent <= want <= adjacent * (1 + _ALPHA_ONE_SLACK), msg


@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("M", [64, 256, 512])
def test_pair_max_equals_all_pairs_scan(M, alpha):
    rng = np.random.default_rng(M)
    g = interpolate("powabs(t-0.3, 0.5)", (0.0, 1.0), 24)
    ts = _sample_grid(g.N, g.a, g.b, M)[0]
    P, m = len(ts), len(ts) // 3
    cases = {
        "random real": rng.standard_normal(P) + 0j,
        "random complex": rng.standard_normal(P) + 1j * rng.standard_normal(P),
        "smooth": np.exp(2j * ts) + np.sin(5 * ts),
        "constant": np.full(P, 2.0 + 1.0j),
        "ramp": ts + 0j,
        "complex ramp": (1 + 2j) * ts,
        # slopes +1 up to ts[m], -1 after: equal maximal slopes
        "tent": np.where(np.arange(P) <= m, ts, 2 * ts[m] - ts) + 0j,
        "powabs cusp": g.eval_at(ts)[0, 0],
    }
    for name, vals in cases.items():
        _assert_pair_max(vals, ts, alpha, name)
    # random, unevenly spaced points
    ts = np.sort(rng.uniform(-1.0, 2.0, P))
    vals = rng.standard_normal(P) + 1j * rng.standard_normal(P)
    _assert_pair_max(vals, ts, alpha)


def test_pair_max_one_ulp_gap_beside_steepest_gap():
    # the lag-2 chord over [0, t1 + ulp] rounds one ulp above the steepest
    # adjacent slope, on [0, t1], which it cannot exceed in exact arithmetic:
    # alpha = 1 returns that slope, not the rounded chord
    t1 = 1.3577481395725988
    ts = np.array([-1.0, 0.0, t1, np.nextafter(t1, 2.0), 3.0])
    v1 = 0.9236090362782893 + 0.601959232063568j
    vals = np.array([0, 0, v1, 0.9236090362782893 + 0.6019592320635682j, v1])
    steepest = np.max(np.abs(np.diff(vals)) / np.diff(ts))
    assert _all_pairs_max(vals, ts, 1.0) > steepest
    _assert_pair_max(vals, ts, 1.0)


_RAMP_CONFIG = {
    "r": 2, "m": 1, "n": 0, "alpha": 1.0, "interval": [0.0, 1.0],
    "eps0": 1.0, "coeffs": [[["0"]], [["0"]]], "rhs": ["(1+eps)*t"],
    "boundary": {"point_terms": [
        {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
        {"order": 0, "point": 1.0, "coeff": [["0"], ["1"]]}]},
    "target": ["0", "1"]}


def test_alpha_one_takes_no_block_scan(tmp_path, monkeypatch):
    # equal steepest adjacent slopes (a ramp, a tent) and the sweep of
    # y'' = (1 + eps) t, whose perturbation is a ramp: alpha = 1 returns
    # the adjacent maximum and never builds the blocks
    def no_block_scan(key, alpha):
        raise AssertionError("alpha = 1 entered the block scan")

    monkeypatch.setattr(grid, "_pair_grid", no_block_scan)
    ts = _sample_grid(32, 0.0, 1.0, 1024)[0]
    P, m = len(ts), len(ts) // 3
    assert P == 1055
    for vals in (ts + 0j, (1 + 2j) * ts,
                 np.where(np.arange(P) <= m, ts, 2 * ts[m] - ts) + 0j):
        assert _pair_max(vals, ts, 1.0) == np.max(
            np.abs(np.diff(vals)) / np.diff(ts))
    config = tmp_path / "ramp.json"
    config.write_text(json.dumps(_RAMP_CONFIG))
    assert cli.main(["sweep", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("chunk", [16, 1])
@pytest.mark.parametrize("alpha", [1.0, 0.77, 0.5, 0.3, 0.1])
def test_pair_max_block_edges(alpha, chunk, monkeypatch):
    # shapes around the block size, then unevenly spaced points whose
    # maximum (for alpha < 1) is a chord of lag 8 through a dense cluster,
    # inside one block or across a block seam; batches of 16 block pairs or
    # of one raise the best between more pruning decisions than the default
    monkeypatch.setattr(grid, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(7)
    B = _PAIR_BLOCK
    for P in (1, 2, 3, B - 1, B + 1, 4 * B - 1, 4 * B + 1):
        ts = np.sort(rng.uniform(-1.0, 2.0, P))
        for vals in (rng.standard_normal(P) + 1j * rng.standard_normal(P),
                     np.exp(3j * ts), ts + 0j):
            got = _pair_max(vals, ts, alpha)
            assert got == _all_pairs_max(vals, ts, alpha), (P, got)
    n = np.arange(40 * B)
    for start in (B + 4, 2 * B - 4):
        ts = np.cumsum(np.where(np.abs(n - start - 4) <= 6, 1e-3, 1.0))
        vals = np.clip(n - start, 0, 8) + 1e-3 * rng.standard_normal(len(n))
        vals = vals + 0j
        assert _pair_max(vals, ts, alpha) == _all_pairs_max(vals, ts, alpha)
    # a steep ramp beside flat data, inside one block or across a seam: the
    # maximum sits in a diagonal or adjacent block pair, whose bound is
    # L**alpha * S**(1-alpha) (tight at the ramp's ends), not S / gap**alpha
    ts = np.linspace(0.0, 1.0, 10 * B)
    for start in (3 * B + 2, 4 * B - 4):
        ramp = np.clip(n[:len(ts)] - start, 0, 7) * 1e3 / (10 * B)
        for vals in (ramp + 0j, ramp + 1e-9 * np.sin(50 * ts) + 0j,
                     ramp * (1 + 2j)):
            got = _pair_max(vals, ts, alpha)
            assert got == _all_pairs_max(vals, ts, alpha), (start, got)
    # a rise of 0.7 over the seam gap into block 4, then 0.3 inside it:
    # L of block pair (3, 4) must count the gap between the blocks
    vals = np.where(n[:len(ts)] < 4 * B, 0.0, 0.7) + 0j
    vals[4 * B + 1:] = 1.0
    assert _pair_max(vals, ts, alpha) == _all_pairs_max(vals, ts, alpha)
    # subnormal steps: every adjacent slope underflows to 0, but chords
    # over many gaps have nonzero ratios
    ts = 10.0 * np.arange(6 * B)
    vals = np.arange(6 * B) * 5e-324 + 0j
    assert _pair_max(vals, ts, alpha) == _all_pairs_max(vals, ts, alpha)
    # real data stored with imaginary parts -0.0 takes the real-valued
    # scan; one nonzero imaginary part anywhere keeps the complex one
    ts = np.sort(rng.uniform(0.0, 1.0, 6 * B))
    real = np.cumsum(rng.standard_normal(len(ts)))
    negzero = real.astype(complex)
    negzero.imag = -0.0
    assert np.signbit(negzero.imag).all()
    one = real + 0j
    one[2 * B + 5] += 1e-3j
    for vals in (negzero, one):
        assert _pair_max(vals, ts, alpha) == _all_pairs_max(vals, ts, alpha)
    assert _pair_max(negzero, ts, alpha) == _pair_max(real, ts, alpha)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha, jump, steps", [
    (0.5, 1e299, 1), (0.5, 1e299, 2), (1.0, 1e296, 2)],
    ids=["alpha0.5-one-gap", "alpha0.5-two-gaps", "alpha1-two-gaps"])
def test_pair_max_huge_slope_is_exact_and_silent(alpha, jump, steps):
    # v rises by `jump` in `steps` equal steps over gaps of about 1e-12 at
    # t = 0.5.  At alpha = 0.5 the adjacent slope |dv|/dt overflows while
    # every quotient is finite; at alpha = 1 the quotient is that slope, so
    # the jump is the largest that keeps it finite.  The bound must neither
    # warn nor prune.
    h = 2.0 ** -40 if steps == 2 else 1e-12
    ts = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101),
                                   0.5 + h * np.arange(1, steps + 1)]))
    vals = np.clip(np.round((ts - 0.5) / h), 0, steps) / steps * jump + 0j
    want = _all_pairs_max(vals, ts, alpha)
    assert np.isfinite(want)
    assert _pair_max(vals, ts, alpha) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pair_max_nan_sample_gives_nan():
    ts = np.linspace(0, 1, 2000)
    vals = ts + 0j
    assert _pair_max(vals, ts, 1.0) == pytest.approx(1.0)
    vals[1500] = np.inf
    assert _pair_max(vals, ts, 1.0) == np.inf
    vals[1500] = -np.inf
    assert _pair_max(vals, ts, 0.5) == np.inf
    vals[1500] = np.nan
    assert np.isnan(_pair_max(vals, ts, 1.0))
    assert np.isnan(_pair_max(vals, ts, 0.5))
    # the last block is padded with copies of the last sample
    ts = np.linspace(0, 1, 2 * _PAIR_BLOCK + 1)
    vals = ts + 0j
    vals[-1] = np.inf
    assert _pair_max(vals, ts, 0.5) == np.inf


def _mixed_rows(ts):
    """Rows of every kind a stack of `grid._pair_max` can mix: real, complex,
    real stored complex (imaginary parts 0 or -0.0), constant, NaN, +-inf,
    tiny and huge; cusps (about 35 live block pairs each on 1055 points)
    and smooth rows (a few)."""
    rng = np.random.default_rng(11)
    P = len(ts)
    negzero = np.cos(2 * ts) + 0j
    negzero.imag = -0.0
    nan, inf, neginf = (np.sin(3 * ts) + 0j for _ in range(3))
    nan[P // 3], inf[P // 2], neginf[-1] = np.nan, np.inf, -np.inf
    rows = [np.abs(ts - ts[P // 2]) ** 0.5, np.abs(ts - 0.3) ** 0.25,
            ts ** 0.5, np.sin(3 * ts), np.exp(5j * ts),
            np.abs(ts - 0.6) ** 0.5 * np.exp(2j * ts), np.cos(2 * ts) + 0j,
            negzero, np.full(P, 2.0), np.full(P, 1 + 2j), nan, inf, neginf,
            rng.standard_normal(P), rng.standard_normal(P) + 1j * rng.
            standard_normal(P), ts, np.where(ts < 0.4, 0.0, 1.0),
            1e-300 * np.sin(ts), 1e300 * np.sin(ts),
            np.minimum(ts, 0.7 - ts)]
    return np.array(rows, dtype=complex)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chunk", [None, 6])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.77, 0.9])
def test_pair_max_rows_keep_their_bits_in_any_stack(alpha, chunk,
                                                    monkeypatch):
    # stacks of 1, 3 and 20 rows of mixed kinds; with batches of 6 block
    # pairs a cusp row alone takes 6 batches, exp(5it) 42, a smooth or noisy
    # row 1 to 4, a constant one none; each row has the bits of the
    # all-pairs scan and of its scan alone
    if chunk:
        monkeypatch.setattr(grid, "_PAIR_CHUNK", chunk)
    ts = _sample_grid(32, 0.0, 1.0, 1024)[0]
    V = _mixed_rows(ts)
    with np.errstate(invalid="ignore"):
        want = np.array([_all_pairs_max(v, ts, alpha) for v in V])
    assert np.isnan(want).sum() == 1 and np.isinf(want).sum() == 2
    for k in (1, 3, 20):
        got = np.concatenate([grid._pair_max(V[s:s + k], ts, alpha)
                              for s in range(0, len(V), k)])
        assert repr(got.tolist()) == repr(want.tolist()), k


@pytest.mark.parametrize("argv", [
    ["sweep", "--gallery", "F6_holder_rough", "--count", "4"],
    ["verify", "--gallery", "F6_holder_rough"],
    ["sweep", "--gallery", "F6_holder_rough", "--count", "2",
     "--degree", "64", "--samples", "2048"]])
def test_pair_max_is_exact_on_the_f6_workload(argv, tmp_path, monkeypatch):
    calls, pair_max = [], grid._pair_max

    def recording(V, ts, alpha):
        calls.append((V, ts, alpha, pair_max(V, ts, alpha)))
        return calls[-1][-1]

    monkeypatch.setattr(grid, "_pair_max", recording)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert any(alpha < 1.0 for _, _, alpha, _ in calls)
    for V, ts, alpha, got in calls:
        for vals, row in zip(V, got):
            assert row == _all_pairs_max(vals, ts, alpha)


@pytest.mark.parametrize("N, M, interval", [
    (8, 64, (0.0, 1.0)), (24, 512, (0.0, 1.0)), (32, 1024, (-1.0, 2.0)),
    (100, 128, (0.0, 1e-3)), (512, 4096, (-5.0, 10.0))])
def test_seminorm_samples_strictly_increase(N, M, interval):
    # the seminorm's block bounds, and alpha = 1's adjacent maximum, hold
    # only on sorted, distinct points
    g = interpolate("t", interval, N)
    assert np.all(np.diff(_sample_grid(g.N, g.a, g.b, M)[0]) > 0)


@pytest.mark.parametrize("symbolic", [True, False])
def test_norms_equal_a_direct_evaluation_at_the_sample_points(symbolic):
    # the cached evaluation matrix must give the same floats as building
    # it afresh (values only) or evaluating the expressions (symbolic)
    g = interpolate([["sin(3*t)"], ["powabs(t-0.3, 1.5)"]], (0.0, 2.0), 24)
    if not symbolic:
        g = GridFunction(g.values, g.interval)
    M = 256

    def direct(f, ts):
        if symbolic:
            return f.eval_at(ts)
        return f.values @ bary_matrix(f.nodes, ts).T

    # one point set: within the merge gap of every uniform point and node
    ts = _sample_grid(g.N, g.a, g.b, M)[0]
    for want in (g.a + (g.b - g.a) * np.arange(M + 1) / M, g.nodes):
        gap = np.abs(want[:, None] - ts[None, :]).min(axis=1)
        assert np.all(gap <= 1e-9 * (g.b - g.a))
    want = float(np.sum(np.max(np.abs(direct(g, ts)), axis=-1)))
    assert sup_norm(g, M) == want
    for n, alpha in ((0, 0.5), (1, 1.0)):
        vals = direct(g.derivative(n), ts)
        want = sum(_pair_max(v, ts, alpha) for v in vals[:, 0])
        assert holder_seminorm(g, HolderIndex(n, alpha), M) == want


@pytest.mark.parametrize("node", [1, 5, 11])
def test_sup_norm_reads_a_maximum_at_a_node_off_the_uniform_grid(node):
    # the degree-24 cardinal function of a node peaks at exactly 1 there;
    # nodes 1, 5 and 11 are not among the 65 uniform points at M = 64
    N, M = 24, 64
    vals = np.zeros(N + 1)
    vals[node] = 1.0
    g = _from_values(vals)
    assert sup_norm(g, M) == 1.0
    assert holder_norm(g, HolderIndex(0, 1.0), M).sup_parts[0] == 1.0


def _norm_stack(kind, shape, N=24, interval=(0.0, 2.0)):
    """Functions of one degree, interval and shape, built afresh per call:
    node values (real, complex, imaginary parts -0.0, a NaN and an inf row),
    expressions sharing their sources (an eps column) or not."""
    size = shape[0] * shape[1]
    if kind == "values":
        t = grid._grid_data(N, *interval)[0]
        base = np.sin(np.outer(np.arange(1, size + 1), t))
        rows = [base, base * (1 + 0.5j) + 1j * np.cos(t), base + 0j,
                np.abs(base - 0.3) ** 0.6, base.copy(), base.copy(),
                np.cos(base)]
        rows[2].imag = -0.0
        rows[4][-1, 3], rows[5][0, 7] = np.nan, np.inf
        return [GridFunction(np.reshape(r, shape + (N + 1,)), interval)
                for r in rows]
    srcs = ["(1+eps)*sin(3*t)", "eps*powabs(t-0.5, 1.5)",
            "exp(eps*t)+i*eps", "t^2-eps*cos(t)"][:size]
    if kind == "shared":
        exprs = np.reshape([ex.parse_expression(e) for e in srcs], shape)
        return GridFunction.from_exprs(exprs, interval, N, eps=np.array(
            [0.5, 0.25, 0.125, 1e-3, 0.0]))
    return [interpolate(np.reshape([e.replace("eps", str(x)) for e in srcs],
                                   shape).tolist(), interval, N)
            for x in ("0.5", "(-2)", "0", "1e-3")]


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize("kind", ["values", "shared", "distinct"])
@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.77])
def test_holder_norms_have_the_bits_of_each_norm_alone(alpha, n, shape, kind,
                                                       chunk, monkeypatch):
    # a stacked norm samples, differentiates and reduces its functions
    # together (in stacks of `chunk` where given); each value, sup parts
    # and seminorm included, has the bits of the function's norm alone
    idx, M = HolderIndex(n, alpha), 128
    if chunk:
        P = len(_sample_grid(24, 0.0, 2.0, M)[0])
        monkeypatch.setattr(grid, "NORM_STACK_BYTES",
                            chunk * 16 * P * shape[0] * shape[1])
    with np.errstate(invalid="ignore", over="ignore"):
        stacked = grid.holder_norms(_norm_stack(kind, shape), idx, M)
        alone = [holder_norm(g, idx, M) for g in _norm_stack(kind, shape)]
        defined = [_norm_by_definition(g, idx, M)
                   for g in _norm_stack(kind, shape)]
    assert repr(stacked) == repr(alone) == repr(defined)
    assert len(stacked) > 3


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_holder_norms_scan_every_row_in_one_call(alpha, monkeypatch):
    # 7 functions of shape (2, 1) in stacks of 2: below alpha = 1 one
    # seminorm scan takes all 14 rows, at alpha = 1 each stack its own
    P = len(_sample_grid(24, 0.0, 2.0, 128)[0])
    monkeypatch.setattr(grid, "NORM_STACK_BYTES", 2 * 16 * P * 2)
    calls, pair_max = [], grid._pair_max

    def recording(V, ts, a):
        calls.append(len(V))
        return pair_max(V, ts, a)

    monkeypatch.setattr(grid, "_pair_max", recording)
    with np.errstate(invalid="ignore", over="ignore"):
        grid.holder_norms(_norm_stack("values", (2, 1)),
                          HolderIndex(0, alpha), 128)
    assert calls == ([14] if alpha < 1.0 else [4, 4, 4, 2])


def _norm_by_definition(g, idx, M):
    """holder_norm row by row from the memoized samples of each derivative
    object: sup_norm per order, _pair_max per entry of g^(n), summed in
    order."""
    sup_parts = tuple(sup_norm(g.derivative(j), M) for j in range(idx.n + 1))
    ts, vals = grid._sample(g.derivative(idx.n), M)
    semi = 0.0
    for v in vals.reshape(-1, len(ts)):
        semi += _pair_max(v, ts, idx.alpha)
    return grid.NormValue(sup_parts, semi, float(sum(sup_parts) + semi))


def test_holder_norm_samples_each_expression_once(monkeypatch):
    g = interpolate("sin(3*t) + powabs(t-0.3, 0.5)", (0.0, 1.0), 24)
    calls, eval_exprs = [], grid._eval_exprs

    def counting(sources, ts, eps, a, b):
        calls.append(len(ts))
        return eval_exprs(sources, ts, eps, a, b)

    monkeypatch.setattr(grid, "_eval_exprs", counting)
    idx = HolderIndex(0, 0.5)
    first = holder_norm(g, idx, 256)
    # the sup part and the seminorm share one sampling, and a repeated
    # norm of the same function samples nothing again
    assert holder_norm(g, idx, 256) == first
    assert len(calls) == 1 and calls[0] > 257


def test_every_sampled_norm_enforces_the_sample_floor():
    g = interpolate("t", (0.0, 1.0), 8)
    floor = grid.MIN_SEMINORM_SAMPLES
    idx = HolderIndex(1, 0.5)
    for norm in (sup_norm, lambda f, M: holder_seminorm(f, idx, M),
                 lambda f, M: holder_norm(f, idx, M)):
        with pytest.raises(ValueError, match="below 64"):
            norm(g, floor - 1)
        norm(g, floor)


def test_shared_grid_arrays_are_read_only():
    g = interpolate("t", (0, 1), 8)
    with pytest.raises(ValueError):
        g.nodes[0] = 1.0
    with pytest.raises(ValueError):
        g.diffmat[0, 0] = 1.0
    ts, ET = _sample_grid(8, 0.0, 1.0, 64)
    # the sample operand is stored as the complex matmul uses it
    assert ET.dtype == np.complex128 and ET.flags.c_contiguous
    assert ET.shape == (9, len(ts))
    with pytest.raises(ValueError):
        ts[0] = 1.0
    with pytest.raises(ValueError):
        ET[0, 0] = 1.0
    with pytest.raises(ValueError):
        _point_row(8, 0.0, 1.0, 0.3)[0, 0] = 1.0
    # memoized samples are shared by every norm of g, so none may edit them
    for f in (g, GridFunction(g.values, g.interval)):
        with pytest.raises(ValueError):
            grid._sample(f, 64)[1][0, 0, 0] = 1.0


def _bary_oracle(nodes, x):
    """bary_matrix as first written: full-size difference, ratio and mask
    arrays, exact node hits found by diff == 0."""
    weights = (-1.0) ** np.arange(len(nodes))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diff = x[:, None] - nodes[None, :]
    exact_rows, exact_cols = np.nonzero(diff == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = weights[None, :] / diff
        E = ratios / np.sum(ratios, axis=1, keepdims=True)
    E[exact_rows, :] = 0.0
    E[exact_rows, exact_cols] = 1.0
    return E


@pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 2.0)])
@pytest.mark.parametrize("N", [8, 32, 384, 512])
def test_bary_matrix_has_the_bits_of_the_full_size_formula(N, interval):
    a, b = interval
    nodes = grid._grid_data(N, a, b)[0]
    points = [
        np.linspace(a, b, 4 * N + 1),        # cmd_solve's output grid
        np.concatenate([nodes[[0, 1, N // 2, N]], [a - 0.25, b + 0.5],
                        [0.5 * (nodes[2] + nodes[3])], nodes[::-1][:3]]),
        a + 0.3 * (b - a),                    # a single point
        nodes[-1],                            # an endpoint on its own
    ]
    for x in points:
        got, want = bary_matrix(nodes, x), _bary_oracle(nodes, x)
        assert got.shape == want.shape
        # equal bit patterns, so signed zeros and NaNs compare too
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_point_rows_match_bary_matrix():
    # the cached row boundary_matrix reads, and single-point eval_at of a
    # values-only function, have the bits of a fresh barycentric matrix:
    # at an endpoint, an interior node and an off-node point
    rng = np.random.default_rng(3)
    N = 24
    g = GridFunction(rng.standard_normal((2, 1, N + 1))
                     + 1j * rng.standard_normal((2, 1, N + 1)), (0.0, 1.0))
    for t in (0.0, float(g.nodes[7]), 0.3):
        E = bary_matrix(g.nodes, [t])
        assert np.array_equal(_point_row(N, 0.0, 1.0, t), E)
        assert np.array_equal(g.eval_at([t]), g.values @ E.T)
    # boundary_matrix's point rows: F5's point term at the off-node 0.25,
    # of order 0 and in its order-1 and order-2 variants
    for k in range(3):
        cfg = _gallery_config("F5_multipoint_integral")
        cfg["boundary"]["point_terms"][0]["order"] = k
        inst = instantiate(family_from_config(cfg), 0.3, N)
        want = bary_matrix(g.nodes, [0.25])[0]
        for _ in range(k):
            want = want @ g.diffmat
        assert np.array_equal(boundary_matrix(inst.B, N)[0], want)


def test_sweep_builds_each_point_row_once():
    # a default F1 sweep evaluates its two boundary points at N = 32 in
    # every boundary matrix and apply_B, but builds each (N, t) row once
    grid._point_row.cache_clear()
    two_sided_sweep(gallery("F1_smooth_perturb"))
    info = grid._point_row.cache_info()
    assert info.misses == info.currsize == 2
    assert info.hits > 0


def test_holder_norm_examples():
    idx = HolderIndex(0, 1.0)
    ramp = interpolate("t", (0.0, 1.0), 8)
    assert abs(holder_norm(ramp, idx, 256).total - 2.0) < 1e-12
    const = interpolate("neg(1.5)", (0.0, 1.0), 8)
    assert abs(holder_norm(const, idx, 256).total - 1.5) < 1e-13


def test_holder_norm_sin_n1_brute_force():
    g = interpolate("sin(t)", (0.0, 1.0), 24)
    idx = HolderIndex(1, 1.0)
    nv = holder_norm(g, idx, 512)
    ts = np.linspace(0, 1, 2001)
    sup0 = np.max(np.abs(np.sin(ts)))
    sup1 = np.max(np.abs(np.cos(ts)))
    dv = np.abs(np.cos(ts)[:, None] - np.cos(ts)[None, :])
    dt = np.abs(ts[:, None] - ts[None, :])
    semi = np.max(np.divide(dv, dt, out=np.zeros_like(dv), where=dt > 0))
    assert abs(nv.total - (sup0 + sup1 + semi)) < 1e-3
    assert nv.total == pytest.approx(sum(nv.sup_parts) + nv.seminorm)


def test_product_identity_and_square():
    one = interpolate("1", (0.0, 1.0), 8)
    ramp = interpolate("t", (0.0, 1.0), 8)
    p = product(one, ramp)
    ts = np.linspace(0, 1, 64)
    assert np.max(np.abs(p.eval_at(ts)[0, 0] - ts)) < 1e-13
    sq = product(ramp, ramp)
    assert np.max(np.abs(sq.eval_at(ts)[0, 0] - ts ** 2)) < 1e-13


def test_product_matches_convolution_oracle():
    rng = np.random.default_rng(7)
    p = rng.standard_normal(9)  # degree 8
    q = rng.standard_normal(9)
    N = 8
    from hbvp.chebyshev import lobatto_nodes
    nodes = lobatto_nodes(N, 0.0, 1.0)
    f = _from_values(np.polyval(p, nodes))
    g = _from_values(np.polyval(q, nodes))
    fg = product(f, g)
    pq = np.polymul(p, q)
    ts = lobatto_nodes(fg.N, 0.0, 1.0)
    assert np.max(np.abs(fg.eval_at(ts)[0, 0] - np.polyval(pq, ts))) < 1e-12


def test_product_shape_rules():
    A = interpolate([["1", "t"], ["0", "1"]], (0.0, 1.0), 8)
    v = interpolate([["t"], ["1"]], (0.0, 1.0), 8)
    Av = product(A, v)
    assert Av.shape == (2, 1)
    ts = np.linspace(0, 1, 20)
    assert np.allclose(Av.eval_at(ts)[0, 0], 2 * ts)
    with pytest.raises(ShapeError):
        product(v, A)
    # at the factors' own degree: the nodal product, bit for bit
    assert np.array_equal(product(A, v, N=A.N).values,
                          np.einsum("ikt,kjt->ijt", A.values, v.values))


def test_product_of_two_degree_400_factors_has_degree_800():
    f = interpolate("t", (0.0, 1.0), 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert product(f, f).N == 800


@pytest.mark.parametrize("build, error", [
    (lambda: GridFunction(np.zeros((1, 9)), (0.0, 1.0)), ShapeError),
    (lambda: GridFunction(np.zeros((1, 1, 9)), (1.0, 1.0)), ValueError),
    (lambda: interpolate("t", (0.0, 1.0), 8)
     + interpolate([["t"], ["1"]], (0.0, 1.0), 8), ShapeError),
    (lambda: interpolate("t", (0.0, 1.0), 8)
     - interpolate("t", (0.0, 2.0), 8), ValueError),
    (lambda: product(interpolate("t", (0.0, 1.0), 8),
                     interpolate("t", (0.0, 2.0), 8)), ValueError)],
    ids=["values-not-3d", "empty-interval", "binary-shapes",
         "binary-intervals", "product-intervals"])
def test_malformed_grid_function_or_operands_raise(build, error):
    with pytest.raises(error):
        build()


def _random_pair(rng, N=16):
    a = _from_values(rng.standard_normal(N + 1)
                     + 1j * rng.standard_normal(N + 1))
    b = _from_values(rng.standard_normal(N + 1)
                     + 1j * rng.standard_normal(N + 1))
    return a, b


def test_homogeneity_and_triangle_50_random_pairs():
    rng = np.random.default_rng(11)
    idx = HolderIndex(0, 0.7)
    for _ in range(50):
        f, g = _random_pair(rng)
        c = rng.standard_normal() * 3.0
        nf = holder_norm(f, idx, 256).total
        ng = holder_norm(g, idx, 256).total
        ncf = holder_norm(f.scale(c), idx, 256).total
        assert abs(ncf - abs(c) * nf) <= 1e-12 * (1 + abs(c) * nf)
        nsum = holder_norm(f + g, idx, 256).total
        assert nsum <= nf + ng + 1e-12


def test_monotone_sampling():
    g = interpolate("powabs(t-0.3, 0.5)", (0.0, 1.0), 32)
    idx = HolderIndex(0, 0.5)
    coarse = holder_seminorm(g, idx, 256)
    fine = holder_seminorm(g, idx, 512)
    assert coarse <= fine + 1e-12


def test_banach_algebra_certificate():
    pairs = [("sin(t)", "exp(t)"), ("t^2", "cos(t)"), ("1+t", "sqrt(t+1)")]
    for n in (0, 1, 2):
        idx = HolderIndex(n, 0.8)
        K = algebra_constant(idx)
        assert K == 2.0 ** (n + 1) * (n + 1) ** 2
        for sf, sg in pairs:
            f = interpolate(sf, (0.0, 1.0), 16)
            g = interpolate(sg, (0.0, 1.0), 16)
            nfg = holder_norm(product(f, g), idx, 256).total
            bound = K * holder_norm(f, idx, 256).total \
                * holder_norm(g, idx, 256).total
            assert nfg <= bound + 1e-10


def test_nested_space_comparison():
    # on [0,1] the comparison constant max(1, (b-a)^(alpha-alpha')) is 1
    for src in ("sin(t)", "t^3", "powabs(t-0.5, 0.9)"):
        g = interpolate(src, (0.0, 1.0), 24)
        hi = holder_norm(g, HolderIndex(0, 0.9), 512).total
        lo = holder_norm(g, HolderIndex(0, 0.4), 512).total
        assert lo <= hi + 1e-10


def test_symbolic_source_matches_nodes():
    g = interpolate("exp(t)*sin(3*t)", (0.0, 2.0), 20)
    import hbvp.expr as ex
    direct = ex.evaluate(g.sources[0, 0], g.nodes, 0.0)
    assert np.max(np.abs(g.values[0, 0] - direct)) < 1e-13 * np.max(
        np.abs(direct) + 1)


def test_arithmetic_mixed_degrees():
    f = interpolate("t^2", (0.0, 1.0), 8)
    g = interpolate("sin(t)", (0.0, 1.0), 24)
    h = f + g
    assert h.N == 24
    ts = np.linspace(0, 1, 33)
    assert np.max(np.abs(h.eval_at(ts)[0, 0] - (ts ** 2 + np.sin(ts)))) < 1e-12


def test_min_samples_covers_the_seminorm_and_the_degree():
    assert [grid.min_samples(N) for N in (8, 63, 64, 256)] == [64, 64, 65, 257]


@pytest.mark.parametrize("M", [65, 100, 128])
def test_norms_of_a_product_sample_at_least_at_its_degree(M):
    # the degree-128 product of two degree-64 functions, sampled at an M
    # that covers its factors but not itself, takes the points of M = 129
    f = interpolate("sin(3*t)", (0.0, 1.0), 64)
    fg = product(f, interpolate("exp(t)", (0.0, 1.0), 64))
    idx = HolderIndex(1, 0.5)
    assert fg.N == 128
    assert holder_norm(fg, idx, M) == holder_norm(fg, idx, 129)


@pytest.mark.parametrize("src", [
    "(2+eps)/(3+eps)", "(1+eps)/(7+eps)*exp(t)", "(1+2*i*eps)*(3-i*eps)*t",
    "sin(t/eps)", "(1+eps)*powabs(t-eps, 0.5)", "powabs(t-0.5, 0.5)",
    "exp(t)"])
def test_an_eps_array_evaluates_as_each_eps_alone(src):
    # a stack's rows have the bits of each eps evaluated alone: eps-only
    # quotients and products in Python's arithmetic, the powabs nudge per
    # eps (the points include each eps and 0.5)
    sources = np.array([[ex.parse_expression(src)]], dtype=object)
    eps = [0.5, 0.3, 0.25, 1e-3]
    ts = np.unique(np.concatenate([grid._grid_data(32, 0.0, 1.0)[0], eps]))
    stacked = grid._eval_exprs(sources, ts, np.array(eps), 0.0, 1.0)
    assert stacked.shape == (4, 1, 1, len(ts))
    for row, x in zip(stacked, eps):
        alone = grid._eval_exprs(sources, ts, x, 0.0, 1.0)
        assert row.tobytes() == alone.tobytes()
