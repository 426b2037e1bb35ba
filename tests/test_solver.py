"""Companion reduction, fundamental matrices, and boundary-value solves."""
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from hbvp import solver as solver_mod
from hbvp.grid import GridFunction, interpolate
from hbvp.problem import (GALLERY_NAMES, apply_B, family_from_config, gallery,
                          instantiate)
from hbvp.solver import (CompanionSystem, ConditionZeroViolated,
                         SolveRejected, apply_L,
                         build_companion, characteristic_matrix,
                         collocation_matrix,
                         fredholm_nullity, fundamental_matrix,
                         liouville_defect,
                         recover_coefficients, solve_bvp, solve_bvp_direct)


def _family(cfg):
    return family_from_config(cfg)


def _simple_cfg(coeffs, rhs, boundary, target, r=2, m=1, interval=(0.0, 1.0)):
    return {
        "r": r, "m": m, "n": 0, "alpha": 1.0,
        "interval": list(interval), "eps0": 1.0,
        "coeffs": coeffs, "rhs": rhs, "boundary": boundary, "target": target,
    }


DIRICHLET = {"point_terms": [
    {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
    {"order": 0, "point": 1.0, "coeff": [["0"], ["1"]]},
]}


def test_companion_layout_r2():
    inst = instantiate(gallery("F1_smooth_perturb"), 0.0, 16)
    cs = build_companion(inst)
    A = cs.A.values
    assert np.allclose(A[0, 1], -1.0)   # superdiagonal -I_1
    assert np.allclose(A[1, 0], 1.0)    # A_0 = 1 at eps=0
    assert np.allclose(A[1, 1], 0.0)    # A_1 = 0
    assert np.allclose(cs.g.values[0], 0.0)
    assert np.allclose(cs.g.values[1], inst.rhs.values[0])


def test_companion_layout_r1_degenerate():
    cfg = _simple_cfg([[["2"]]], ["1"],
                      {"point_terms": [
                          {"order": 0, "point": 0.0, "coeff": [["1"]]}]},
                      ["0"], r=1)
    inst = instantiate(_family(cfg), 0.0, 16)
    cs = build_companion(inst)
    assert cs.A.shape == (1, 1)
    assert np.allclose(cs.A.values[0, 0], 2.0)
    assert np.allclose(cs.g.values[0, 0], 1.0)


def test_companion_layout_r3_m2_structure():
    coeffs = [[[f"{j + 1}", "0"], ["0", f"{j + 1}"]] for j in range(3)]
    boundary = {"point_terms": [
        {"order": q, "point": 0.0,
         "coeff": [["1" if (i, k) == (2 * q, 0) else
                    ("1" if (i, k) == (2 * q + 1, 1) else "0")
                    for k in range(2)] for i in range(6)]}
        for q in range(3)]}
    cfg = _simple_cfg(coeffs, ["0", "0"], boundary, ["0"] * 6, r=3, m=2)
    inst = instantiate(_family(cfg), 0.0, 16)
    cs = build_companion(inst)
    A = cs.A.values[..., 0]  # constant in t
    expect = np.zeros((6, 6), dtype=complex)
    expect[0:2, 2:4] = -np.eye(2)
    expect[2:4, 4:6] = -np.eye(2)
    for j in range(3):
        expect[4:6, 2 * j:2 * j + 2] = (j + 1) * np.eye(2)
    assert np.allclose(A, expect)


def test_fundamental_scalar_exponential():
    lam = 1.7
    A = interpolate(str(lam), (0.0, 1.0), 32)
    g = interpolate("0", (0.0, 1.0), 32)
    cs = CompanionSystem(A, g)
    fund = fundamental_matrix(cs)
    ts = np.linspace(0, 1, 100)
    err = np.max(np.abs(fund.X.eval_at(ts)[0, 0] - np.exp(-lam * ts)))
    assert err < 1e-10
    dets = np.linalg.det(fund.X.values.transpose(2, 0, 1))
    assert np.min(np.abs(dets)) > 0.1


def test_fundamental_double_integrator():
    # y'' = 0 companion: A = [[0,-1],[0,0]], X = [[1, t-a],[0,1]]
    A = interpolate([["0", "neg(1)"], ["0", "0"]], (0.0, 1.0), 16)
    g = interpolate([["0"], ["0"]], (0.0, 1.0), 16)
    fund = fundamental_matrix(CompanionSystem(A, g))
    ts = np.linspace(0, 1, 50)
    X = fund.X.eval_at(ts)
    assert np.max(np.abs(X[0, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(X[0, 1] - ts)) < 1e-12
    assert np.max(np.abs(X[1, 0])) < 1e-12
    assert np.max(np.abs(X[1, 1] - 1.0)) < 1e-12


def test_fundamental_vs_matrix_exponential_oracle():
    rng = np.random.default_rng(5)
    A0 = rng.standard_normal((4, 4)) * 0.8
    entries = [[str(A0[i, j]) for j in range(4)] for i in range(4)]
    A = interpolate(entries, (0.0, 1.0), 32)
    g = GridFunction(np.zeros((4, 1, 33), dtype=complex), (0.0, 1.0))
    fund = fundamental_matrix(CompanionSystem(A, g))
    for t in (0.3, 0.75, 1.0):
        oracle = scipy.linalg.expm(-A0 * t)
        got = fund.X.eval_at([t])[..., 0]
        assert np.max(np.abs(got - oracle)) < 1e-8


def test_fundamental_matrix_singular_collocation_raises():
    # at degree 1 the one collocation row is x'(1) + A(1) x(1) = -x(0) +
    # (1 + A(1)) x(1); A(1) = -1 leaves x(1) free beside x(a) = x(0)
    A = GridFunction(np.array([[[0.0, -1.0]]]), (0.0, 1.0))
    g = GridFunction(np.zeros((1, 1, 2)), (0.0, 1.0))
    with pytest.raises(np.linalg.LinAlgError):
        fundamental_matrix(CompanionSystem(A, g))


def test_particular_solution_examples():
    A = interpolate("0", (0.0, 1.0), 16)
    zero = interpolate("0", (0.0, 1.0), 16)
    one = interpolate("1", (0.0, 1.0), 16)
    assert np.max(np.abs(fundamental_matrix(
        CompanionSystem(A, zero)).xp)) < 1e-12
    ts = np.linspace(0, 1, 30)
    xp = GridFunction(fundamental_matrix(CompanionSystem(A, one)).xp,
                      (0.0, 1.0))
    assert np.max(np.abs(xp.eval_at(ts)[0, 0] - ts)) < 1e-12


def test_particular_solution_manufactured():
    # choose x*, set g := x*' + A x*, recover x*
    A = interpolate([["sin(t)", "1"], ["t", "cos(t)"]], (0.0, 1.0), 32)
    xs = interpolate([["exp(t)"], ["t^2"]], (0.0, 1.0), 32)
    from hbvp.grid import product
    g = xs.derivative() + product(A, xs)
    # manufactured x* has x*(0) = (1, 0): x* = X (1, 0) + x_p
    fund = fundamental_matrix(CompanionSystem(A.resample(g.N), g))
    sol = fund.X.values[:, :1] + fund.xp
    ts = np.linspace(0, 1, 60)
    got = GridFunction(sol, (0.0, 1.0)).eval_at(ts)
    want = xs.eval_at(ts)
    assert np.max(np.abs(got - want)) < 1e-9


def test_characteristic_matrix_examples():
    # y'' = 0 with Dirichlet: basis columns (1, t) -> M = [[1,0],[1,1]]
    cfg = _simple_cfg([[["0"]], [["0"]]], ["0"], DIRICHLET, ["0", "0"])
    inst = instantiate(_family(cfg), 0.0, 16)
    cm = characteristic_matrix(
        inst.B, fundamental_matrix(build_companion(inst)).X)
    assert np.allclose(cm.M, [[1, 0], [1, 1]], atol=1e-12)
    assert cm.margin > 0.1
    solve_bvp_direct(inst)   # passes the Condition (0) gate

    inst3 = instantiate(gallery("F3_cond0_violated"), 0.0, 16)
    cm3 = characteristic_matrix(
        inst3.B, fundamental_matrix(build_companion(inst3)).X)
    assert np.allclose(cm3.M, [[0, 1], [0, 0]], atol=1e-12)
    assert cm3.margin < 1e-10
    with pytest.raises(ConditionZeroViolated):
        solve_bvp_direct(inst3)


def test_characteristic_matrix_initial_conditions_identity():
    boundary = {"point_terms": [
        {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
        {"order": 1, "point": 0.0, "coeff": [["0"], ["1"]]}]}
    cfg = _simple_cfg([[["0"]], [["0"]]], ["0"], boundary, ["0", "0"])
    inst = instantiate(_family(cfg), 0.0, 16)
    cm = characteristic_matrix(
        inst.B, fundamental_matrix(build_companion(inst)).X)
    assert np.allclose(cm.M, np.eye(2), atol=1e-12)


def test_solve_straight_line():
    cfg = _simple_cfg([[["0"]], [["0"]]], ["0"], DIRICHLET, ["0", "1"])
    inst = instantiate(_family(cfg), 0.0, 16)
    ts = np.linspace(0, 1, 50)
    for solver in (solve_bvp, solve_bvp_direct):
        y = solver(inst).y
        assert np.max(np.abs(y.eval_at(ts)[0, 0] - ts)) < 1e-11


def test_solve_sin_oracle():
    b = float(np.pi / 2)
    cfg = {
        "r": 2, "m": 1, "n": 0, "alpha": 1.0, "interval": [0.0, b],
        "eps0": 1.0, "coeffs": [[["1"]], [["0"]]], "rhs": ["0"],
        "boundary": {"point_terms": [
            {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
            {"order": 0, "point": b, "coeff": [["0"], ["1"]]}]},
        "target": ["0", "1"],
    }
    inst = instantiate(_family(cfg), 0.0, 32)
    res = solve_bvp(inst)
    ts = np.linspace(0, b, 200)
    assert np.max(np.abs(res.y.eval_at(ts)[0, 0] - np.sin(ts))) < 1e-9


def test_solve_refuses_singular_problem():
    inst = instantiate(gallery("F3_cond0_violated"), 0.0, 16)
    with pytest.raises(ConditionZeroViolated):
        solve_bvp(inst)
    with pytest.raises(ConditionZeroViolated):
        solve_bvp_direct(inst)


@pytest.mark.parametrize("N", [256, 512, 768, 1024])
def test_both_routes_refuse_singular_problem_at_high_degree(N):
    # F3's margin is roundoff that grows like N^2 u (7.0e-10 at N = 512):
    # a fixed 1e-10 tolerance let the companion route accept it.  Above
    # N = 512 only the direct route is run; its dense LU is m(N+1) square,
    # the companion route's rm(N+1)
    inst = instantiate(gallery("F3_cond0_violated"), 0.0, N)
    routes = (solve_bvp, solve_bvp_direct) if N <= 512 else (solve_bvp_direct,)
    for solver in routes:
        with pytest.raises(ConditionZeroViolated):
            solver(inst)


def _margin(inst):
    return characteristic_matrix(
        inst.B, fundamental_matrix(build_companion(inst)).X).margin


def test_solve_result_margin_is_the_characteristic_margin():
    # each route reports the margin its own gate decided on: the direct
    # route reads M^{-1} from its factorization, the companion route M from
    # its fundamental matrix; the two discretizations agree closely
    for name in ("F1_smooth_perturb", "F5_multipoint_integral"):
        inst = instantiate(gallery(name), 0.2, 32)
        direct = solve_bvp_direct(inst).margin
        companion = solve_bvp(inst).margin
        assert direct == solver_mod.factor([inst])[0].margin
        assert companion == _margin(inst)
        assert abs(direct - companion) <= 1e-8 * companion


R3_M2_CFG = {
    "r": 3, "m": 2, "n": 0, "alpha": 1.0, "interval": [-1.0, 2.0],
    "eps0": 1.0,
    "coeffs": [[["1", "t"], ["0", "2"]],
               [["0", "1"], ["sin(t)", "0"]],
               [["t", "0"], ["0", "cos(t)"]]],
    "rhs": ["1", "t"],
    "boundary": {"point_terms": [
        {"order": q, "point": point,
         "coeff": [["1" if i == 2 * q + k else "0" for k in range(2)]
                   for i in range(6)]}
        for q, point in enumerate((-1.0, 2.0, 0.5))]},
    "target": ["1", "0", "0", "1", "0", "0"],
}


R1_M2_CFG = _simple_cfg(
    [[["2", "t"], ["1", "0"]]], ["1", "0"], {"point_terms": [
        {"order": 0, "point": 0.0, "coeff": [["1", "0"], ["0", "0"]]},
        {"order": 0, "point": 1.0, "coeff": [["0", "0"], ["1", "1"]]}]},
    ["0", "1"], r=1, m=2)


@pytest.mark.parametrize("cfg", [
    R1_M2_CFG, "F5_multipoint_integral", R3_M2_CFG],
    ids=["r1_m2", "F5", "r3_m2"])
def test_direct_gate_margin_matches_companion_characteristic_margin(cfg):
    # E Z = M^{-1}, with Z the fundamental block of the bordered solve and
    # E its initial rows, holds for any r and m and for integral terms
    fam = gallery(cfg) if isinstance(cfg, str) else _family(cfg)
    inst = instantiate(fam, 0.0, 32)
    margin = solve_bvp_direct(inst).margin   # the gate raises if unsatisfied
    assert abs(margin - _margin(inst)) <= 1e-6 * _margin(inst)


def _count_calls(monkeypatch, name, degree):
    degrees = []
    real = getattr(solver_mod, name)

    def counting(*args):
        degrees.append(degree(*args))
        return real(*args)

    monkeypatch.setattr(solver_mod, name, counting)
    return degrees


def _count_fundamental_matrices(monkeypatch):
    return _count_calls(monkeypatch, "fundamental_matrix", lambda cs: cs.A.N)


def test_direct_route_decides_condition_zero_once(monkeypatch):
    # F6 at N = 512 sits at the residual gate's roundoff level (rejected on
    # one BLAS thread, accepted on two), so the gate is made to reject; the
    # solve is rejected at the requested degree after one collocation
    # matrix, whose factorization also decides Condition (0), with no retry
    # at a higher degree
    monkeypatch.setattr(solver_mod, "_accept", lambda *a: False)
    fundamentals = _count_fundamental_matrices(monkeypatch)
    collocations = _count_collocation_matrices(monkeypatch)
    with pytest.raises(SolveRejected) as err:
        solve_bvp_direct(instantiate(gallery("F6_holder_rough"), 0.2, 512))
    assert err.value.N == 512
    assert collocations == [512]
    assert fundamentals == []


@pytest.mark.parametrize("N", [32, 256])
@pytest.mark.parametrize("cfg", [
    "F1_smooth_perturb", "F5_multipoint_integral", "F6_holder_rough",
    R3_M2_CFG, R1_M2_CFG], ids=["F1", "F5", "F6", "r3_m2", "r1_m2"])
def test_direct_residual_is_L_at_the_collocation_nodes(cfg, N):
    # the degree-N residual has the bits of apply_L's degree-2N L y
    # evaluated at the kept collocation nodes
    if isinstance(cfg, str):
        inst = instantiate(gallery(cfg), 0.2, N)
    else:
        inst = instantiate(_family(cfg), 0.0, N)
    y = GridFunction(solver_mod.factor([inst])[0].cols[:, None, :, 0].copy(),
                     inst.interval)
    keep = solver_mod._kept_rows(inst.r, 1, N)
    gap = (apply_L(inst, y).eval_at(inst.rhs.nodes[keep])
           - inst.rhs.values[..., keep])
    assert solver_mod._residuals([inst], [y.values])[0] == float(
        np.max(np.abs(gap)))


@pytest.mark.parametrize("N", [384, 512])
def test_direct_solve_warns_at_no_degree(N):
    # the residual gate forms its products at degree N
    inst = instantiate(gallery("F1_smooth_perturb"), 0.2, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_bvp_direct(inst).N == N


def test_direct_solve_refines_a_y_over_the_gate_once(monkeypatch):
    # the gate rejects the factored y, then judges y after one refinement
    # step, whose residual on [K; Bmat] is smaller
    verdicts = iter([False, True])
    monkeypatch.setattr(solver_mod, "_accept", lambda *a: next(verdicts))
    inst = instantiate(gallery("F1_smooth_perturb"), 0.2, 512)
    f = solver_mod.factor([inst])[0]
    res = solve_bvp_direct(inst)
    assert np.array_equal(res.y.values[:, 0], solver_mod._refined(f))
    assert res.residual == solver_mod._residuals([inst], [res.y.values])[0]

    def backward_error(y):
        ext = f.mat.astype(np.longdouble) @ y.reshape(-1)
        return np.max(np.abs(f.b - ext))

    assert backward_error(solver_mod._refined(f)) < backward_error(
        f.cols[..., 0])


def _count_collocation_matrices(monkeypatch):
    return _count_calls(monkeypatch, "collocation_matrix",
                        lambda insts, dtype: insts[0].N)


def test_companion_route_rejects_at_the_requested_degree(monkeypatch):
    monkeypatch.setattr(solver_mod, "_accept", lambda *a: False)
    degrees = _count_collocation_matrices(monkeypatch)
    with pytest.raises(SolveRejected) as err:
        solve_bvp(instantiate(gallery("F1_smooth_perturb"), 0.2, 32))
    assert err.value.N == 32
    assert degrees == [32]


def test_companion_route_factors_once(monkeypatch):
    # one first-order factorization solves for X and x_p together
    degrees = _count_collocation_matrices(monkeypatch)
    for name in ("F1_smooth_perturb", "F5_multipoint_integral"):
        solve_bvp(instantiate(gallery(name), 0.2, 32))
    assert degrees == [32, 32]


@pytest.mark.parametrize("cfg", ["F1_smooth_perturb", R3_M2_CFG],
                         ids=["F1", "r3_m2"])
def test_companion_residual_is_the_first_order_backward_error(cfg):
    # max |x' + A x - g| over nodes 1..N for x = X v + x_p, the companion
    # route's solution; node 0 carries the initial condition
    if isinstance(cfg, str):
        inst = instantiate(gallery(cfg), 0.2, 32)
    else:
        inst = instantiate(_family(cfg), 0.0, 32)
    cs = build_companion(inst)
    fund = fundamental_matrix(cs)
    M = characteristic_matrix(inst.B, fund.X).M
    xp_top = GridFunction(fund.xp[:inst.m], inst.interval)
    v = np.linalg.solve(M, inst.c - apply_B(inst.B, xp_top)[:, 0])
    x = np.einsum("ijt,j->it", fund.X.values, v) + fund.xp[:, 0, :]
    xg = GridFunction(x[:, None, :], inst.interval)
    fo = (xg.derivative().values[:, 0, 1:]
          + np.einsum("ikt,kt->it", cs.A.values, x)[:, 1:]
          - cs.g.values[:, 0, 1:])
    assert solve_bvp(inst).residual == float(np.max(np.abs(fo)))


def test_solve_superposition():
    inst = instantiate(gallery("F1_smooth_perturb"), 0.2, 24)
    rng = np.random.default_rng(9)
    f1 = interpolate("sin(2*t)", (0.0, 1.0), 24)
    f2 = interpolate("t^3", (0.0, 1.0), 24)
    c1 = rng.standard_normal(2)
    c2 = rng.standard_normal(2)
    a, b = 1.3, -0.7
    ya = solve_bvp_direct(replace(inst, rhs=f1, c=c1)).y
    yb = solve_bvp_direct(replace(inst, rhs=f2, c=c2)).y
    rhs = f1.scale(a) + f2.scale(b)
    yab = solve_bvp_direct(replace(inst, rhs=rhs, c=a * c1 + b * c2)).y
    ts = np.linspace(0, 1, 64)
    combo = a * ya.eval_at(ts) + b * yb.eval_at(ts)
    assert np.max(np.abs(yab.eval_at(ts) - combo)) < 1e-10


def test_solve_result_Z_defining_property():
    for name in ("F1_smooth_perturb", "F5_multipoint_integral"):
        inst = instantiate(gallery(name), 0.0, 24)
        Y = solve_bvp_direct(inst).Z
        BY = apply_B(inst.B, Y)
        assert np.max(np.abs(BY - np.eye(2))) < 1e-10
        LY = apply_L(inst, Y)
        assert np.max(np.abs(LY.values)) < 1e-8


def test_solve_result_Z_initial_conditions_hand_oracle():
    boundary = {"point_terms": [
        {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
        {"order": 1, "point": 0.0, "coeff": [["0"], ["1"]]}]}
    cfg = _simple_cfg([[["0"]], [["0"]]], ["0"], boundary, ["0", "0"])
    inst = instantiate(_family(cfg), 0.0, 16)
    Y = solve_bvp_direct(inst).Z  # y'' = 0 with initial data: Y = (1, t)
    ts = np.linspace(0, 1, 40)
    V = Y.eval_at(ts)
    assert np.max(np.abs(V[0, 0] - 1.0)) < 1e-11
    assert np.max(np.abs(V[0, 1] - ts)) < 1e-11


@pytest.mark.parametrize("cfg", [
    "F1_smooth_perturb", "F2_boundary_perturb", "F5_multipoint_integral",
    "F6_holder_rough", R3_M2_CFG], ids=["F1", "F2", "F5", "F6", "r3_m2"])
def test_both_routes_return_the_matrix_solution(cfg):
    # the direct route reads Z from its bordered factorization, the
    # companion route forms X_top M^{-1}; each is the matrix solution
    if isinstance(cfg, str):
        inst = instantiate(gallery(cfg), 0.2, 32)
    else:
        inst = instantiate(_family(cfg), 0.0, 32)
    direct, companion = solve_bvp_direct(inst), solve_bvp(inst)
    rm = inst.r * inst.m
    assert direct.Z.shape == companion.Z.shape == (inst.m, rm)
    assert np.max(np.abs(direct.Z.values - companion.Z.values)) < 1e-8
    for Z in (direct.Z, companion.Z):
        assert np.max(np.abs(apply_B(inst.B, Z) - np.eye(rm))) < 1e-9
        assert np.max(np.abs(apply_L(inst, Z).values)) < 1e-6


def test_direct_solve_applies_no_boundary_operator(monkeypatch):
    # the bordered rows already hold B; the boundary residual is computed
    # by `hbvp solve`, its one reader
    calls = []
    monkeypatch.setattr(solver_mod, "apply_B",
                        lambda *a: calls.append(a) or apply_B(*a))
    for name in ("F1_smooth_perturb", "F5_multipoint_integral"):
        solve_bvp_direct(instantiate(gallery(name), 0.2, 24))
    assert calls == []


def test_recover_coefficients_hand_examples():
    lam = 0.9
    A = interpolate(str(lam), (0.0, 1.0), 24)
    g = interpolate("0", (0.0, 1.0), 24)
    X = fundamental_matrix(CompanionSystem(A, g)).X
    rec = recover_coefficients(X)
    assert np.max(np.abs(rec.values - lam)) < 1e-9

    A2 = interpolate([["0", "neg(1)"], ["0", "0"]], (0.0, 1.0), 16)
    g2 = interpolate([["0"], ["0"]], (0.0, 1.0), 16)
    X2 = fundamental_matrix(CompanionSystem(A2, g2)).X
    rec2 = recover_coefficients(X2)
    assert np.max(np.abs(rec2.values - A2.values)) < 1e-9


def test_recover_coefficients_rejects_a_near_singular_X():
    # det X(t) = t vanishes at the node t = 0
    X = interpolate([["1", "0"], ["0", "t"]], (0.0, 1.0), 16)
    with pytest.raises(np.linalg.LinAlgError, match="nearly singular"):
        recover_coefficients(X)


def test_recover_round_trip_f1():
    inst = instantiate(gallery("F1_smooth_perturb"), 0.0, 64)
    cs = build_companion(inst)
    X = fundamental_matrix(cs).X
    rec = recover_coefficients(X)
    assert np.max(np.abs(rec.values - cs.A.values)) < 1e-6


def test_apply_L_examples():
    inst = instantiate(gallery("F1_smooth_perturb"), 0.0, 24)
    # A_0 = 1, A_1 = 0: L(sin) = -sin + sin = 0
    y = interpolate("sin(t)", (0.0, 1.0), 24)
    assert np.max(np.abs(apply_L(inst, y).values)) < 1e-12
    res = solve_bvp(inst)
    Ly = apply_L(inst, res.y)
    nodes = inst.rhs.nodes
    gap = np.abs(Ly.eval_at(nodes) - inst.rhs.eval_at(nodes))
    assert np.max(gap[..., 1:-1]) < 1e-6 * (1 + np.max(np.abs(inst.rhs.values)))


def test_apply_L_polynomial_symbolic_oracle():
    # y = t^2, A_0 = 3, A_1 = t:  L y = 2 + t*2t + 3 t^2 = 2 + 5 t^2
    cfg = _simple_cfg([[["3"]], [["t"]]], ["0"], DIRICHLET, ["0", "0"])
    inst = instantiate(_family(cfg), 0.0, 16)
    y = interpolate("t^2", (0.0, 1.0), 16)
    ts = np.linspace(0, 1, 30)
    got = apply_L(inst, y).eval_at(ts)[0, 0]
    assert np.max(np.abs(got - (2 + 5 * ts ** 2))) < 1e-11


def test_companion_route_agrees_with_direct():
    for name in ("F1_smooth_perturb", "F2_boundary_perturb",
                  "F5_multipoint_integral"):
        inst = instantiate(gallery(name), 0.1, 24)
        ya = solve_bvp(inst).y
        yb = solve_bvp_direct(inst).y
        ts = np.linspace(0, 1, 64)
        assert np.max(np.abs(ya.eval_at(ts) - yb.eval_at(ts))) < 1e-8


def test_liouville_identity():
    inst = instantiate(gallery("F1_smooth_perturb"), 0.0, 32)
    cs = build_companion(inst)
    X = fundamental_matrix(cs).X
    assert liouville_defect(cs, X) < 1e-6


def test_fredholm_nullity():
    assert fredholm_nullity(
        instantiate(gallery("F1_smooth_perturb"), 0.0, 16)) == 0
    assert fredholm_nullity(
        instantiate(gallery("F3_cond0_violated"), 0.0, 16)) == 1


def test_collocation_matrix_square():
    inst = instantiate(gallery("F5_multipoint_integral"), 0.0, 20)
    (mat,) = collocation_matrix([inst], solver_mod._dtype([inst]))
    assert mat.shape == (21, 21)


def _dtypes_solved(monkeypatch):
    """The dtype of every matrix that reaches np.linalg.solve."""
    seen, solve = [], np.linalg.solve

    def recording(a, b):
        seen.append(a.dtype)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return seen


def test_real_data_factor_in_float64(monkeypatch, tmp_path):
    from hbvp.cli import main
    seen = _dtypes_solved(monkeypatch)
    for argv in (["sweep", "--gallery", "F1_smooth_perturb"],
                 ["solve", "--gallery", "F1_smooth_perturb", "--eps", "0.25"]):
        seen.clear()
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 0
        assert seen and set(seen) == {np.dtype(float)}


def _explicit_solve(inst, dtype):
    """[f; c] and [0; I] solved by np.linalg.solve of the instance's
    collocation matrix built in dtype, as (m, N+1, 1 + rm) columns."""
    r, m, N = inst.r, inst.m, inst.N
    keep = solver_mod._kept_rows(r, m, N)
    (mat,) = collocation_matrix([inst], dtype)
    rhs = np.zeros((m * (N + 1), 1 + r * m), dtype=dtype)
    rhs[:, 0] = np.concatenate(
        [inst.rhs.values[:, 0, :].reshape(-1)[keep], inst.c]).astype(dtype)
    rhs[-r * m:, 1:] = np.eye(r * m)
    return np.linalg.solve(mat, rhs).reshape(m, N + 1, 1 + r * m)


COMPLEX_CFG = {
    "r": 1, "m": 2, "n": 1, "alpha": 0.5, "interval": [0.0, 1.0],
    "eps0": 1.0, "coeffs": [[["2+i*eps", "eps*t"], ["0", "1"]]],
    "rhs": ["exp(t)", "1+eps*powabs(t-0.3, 2.5)"],
    "boundary": {"point_terms": [
        {"order": 0, "point": 0.0, "coeff": [["1", "0"], ["0", "1"]]}]},
    "target": ["1", "0"]}


@pytest.mark.parametrize("N", [16, 32, 64])
@pytest.mark.parametrize("cfg", [
    *GALLERY_NAMES, R3_M2_CFG, R1_M2_CFG, COMPLEX_CFG],
    ids=[*(n[:2] for n in GALLERY_NAMES), "r3_m2", "r1_m2", "complex"])
def test_stacked_gate_is_the_gate_of_each_alone(cfg, N):
    # eps = 0 (real) and three eps > 0 (complex for the complex config) in
    # one stack: each residual, and each verdict, has the bits of its
    # instance's stack of one
    fam = gallery(cfg) if isinstance(cfg, str) else _family(cfg)
    insts = [instantiate(fam, eps, N) for eps in (0.0, 0.2, 0.1, 0.05)]
    ys = [f.cols[:, None, :, 0] for f in solver_mod.factor(insts)]
    assert solver_mod._residuals(insts, ys) == [
        solver_mod._residuals([inst], [y])[0] for inst, y in zip(insts, ys)]
    for got, inst in zip(solver_mod.solve_stack(insts), insts):
        (want,) = solver_mod.solve_stack([inst])
        assert type(got) is type(want)
        if isinstance(want, Exception):
            assert str(got) == str(want)
            continue
        assert (got.residual, got.margin) == (want.residual, want.margin)
        assert np.array_equal(got.y.values, want.y.values)
        assert np.array_equal(got.Z.values, want.Z.values)


def test_complex_stack_factors_in_complex128():
    from hbvp.problem import instantiate_stack
    insts = instantiate_stack(_family(COMPLEX_CFG), [0.5, 0.25, 0.125], 32)
    assert collocation_matrix(
        insts[:1], solver_mod._dtype(insts[:1])).dtype == np.complex128
    for f, inst in zip(solver_mod.factor(insts), insts):
        assert f.cols.dtype == np.complex128
        assert np.array_equal(f.cols, _explicit_solve(inst, np.complex128))


@pytest.mark.parametrize("N", [32, 128, 512])
@pytest.mark.parametrize("name", ["F1_smooth_perturb",
                                  "F5_multipoint_integral", "F6_holder_rough"])
def test_real_and_complex_factorizations_agree(name, N):
    inst = instantiate(gallery(name), 0.2, N)
    cols = solver_mod.factor([inst])[0].cols
    assert cols.dtype == np.float64
    want = _explicit_solve(inst, np.complex128)
    assert np.max(np.abs(cols - want)) <= 1e-9 * np.max(np.abs(want))
