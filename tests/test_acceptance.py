"""Acceptance gate: ten desk-scale checks of the solver and the theory
suites, each with an explicit tolerance and a printed pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""
import time

import numpy as np
import pytest

from hbvp import analysis as an
from hbvp.grid import GridFunction, HolderIndex, holder_norm, holder_seminorm, interpolate
from hbvp.problem import GALLERY_NAMES, family_from_config, gallery, instantiate
from hbvp.solver import (CompanionSystem, ConditionZeroViolated,
                         build_companion, characteristic_matrix,
                         fredholm_nullity, fundamental_matrix,
                         liouville_defect, recover_coefficients, solve_bvp,
                         solve_bvp_direct)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS  [{detail}]")


def test_acceptance_01_manufactured_sin():
    """y'' + y = 0 on [0, pi/2], y(0)=0, y(pi/2)=1  ->  y = sin t."""
    t0 = time.perf_counter()
    b = float(np.pi / 2)
    cfg = {
        "r": 2, "m": 1, "n": 0, "alpha": 1.0, "interval": [0.0, b],
        "eps0": 1.0, "coeffs": [[["1"]], [["0"]]], "rhs": ["0"],
        "boundary": {"point_terms": [
            {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
            {"order": 0, "point": b, "coeff": [["0"], ["1"]]}]},
        "target": ["0", "1"],
    }
    inst = instantiate(family_from_config(cfg), 0.0, 32)
    y = solve_bvp(inst).y
    ts = np.linspace(0.0, b, 1000)
    err = float(np.max(np.abs(y.eval_at(ts)[0, 0] - np.sin(ts))))
    elapsed = time.perf_counter() - t0
    assert err <= 1e-8
    assert elapsed < 1.0
    _report(1, "manufactured solution", f"sup error {err:.2e}, {elapsed:.2f}s")


def test_acceptance_02_companion_equivalence():
    """Direct r-th order collocation vs companion route on all families."""
    worst = 0.0
    for name in GALLERY_NAMES:
        # rough data converges algebraically, so F6 needs a finer grid
        N = 256 if name == "F6_holder_rough" else 32
        inst = instantiate(gallery(name), 0.0, N)
        if name == "F3_cond0_violated":
            with pytest.raises(ConditionZeroViolated):
                solve_bvp(inst)
            with pytest.raises(ConditionZeroViolated):
                solve_bvp_direct(inst)
            continue
        ya = solve_bvp(inst).y
        yb = solve_bvp_direct(inst).y
        ts = np.linspace(*inst.interval, 257)
        worst = max(worst, float(np.max(np.abs(ya.eval_at(ts)
                                               - yb.eval_at(ts)))))
    assert worst <= 1e-8
    _report(2, "companion equivalence", f"max route gap {worst:.2e}")


def test_acceptance_03_fundamental_round_trip():
    """recover_coefficients(fundamental_matrix(A)) = A; Liouville identity."""
    inst = instantiate(gallery("F1_smooth_perturb"), 0.0, 64)
    cs = build_companion(inst)
    fund = fundamental_matrix(cs)
    gap_f1 = float(np.max(np.abs(recover_coefficients(fund.X).values
                                 - cs.A.values)))
    liou_f1 = liouville_defect(cs, fund.X)

    rng = np.random.default_rng(12)
    A0 = rng.standard_normal((4, 4)) * 0.5
    entries = [[str(A0[i, j]) for j in range(4)] for i in range(4)]
    A = interpolate(entries, (0.0, 1.0), 64)
    g = GridFunction(np.zeros((4, 1, 65), dtype=complex), (0.0, 1.0))
    cs4 = CompanionSystem(A, g)
    fund4 = fundamental_matrix(cs4)
    gap_c = float(np.max(np.abs(recover_coefficients(fund4.X).values
                                - A.values)))
    liou_c = liouville_defect(cs4, fund4.X)
    assert gap_f1 <= 1e-6 and gap_c <= 1e-6
    assert liou_f1 <= 1e-6 and liou_c <= 1e-6
    _report(3, "fundamental-matrix round trip",
            f"recover gaps {gap_f1:.2e}/{gap_c:.2e}, "
            f"Liouville {max(liou_f1, liou_c):.2e}")


def test_acceptance_04_monomial_extraction():
    """Triangular recursion is exact for polynomial coefficients."""
    rng = np.random.default_rng(23)

    def poly_src(degree):
        cs = rng.integers(-3, 4, size=degree + 1)
        src = "+".join(f"({c})*t^{k}" if k else f"({c})"
                       for k, c in enumerate(cs))
        return src

    worst = 0.0
    for r, m in ((2, 1), (3, 2), (1, 2)):
        coeffs = [[[poly_src(6) for _ in range(m)] for _ in range(m)]
                  for _ in range(r)]
        boundary = {"point_terms": [
            {"order": q, "point": 0.0,
             "coeff": [["1" if (i, k) in ((m * q + c, c) for c in range(m))
                        else "0" for k in range(m)]
                       for i in range(r * m)]}
            for q in range(r)]}
        cfg = {"r": r, "m": m, "n": 0, "alpha": 1.0,
               "interval": [0.0, 1.0], "eps0": 1.0, "coeffs": coeffs,
               "rhs": ["0"] * m,
               "boundary": boundary, "target": ["0"] * (r * m)}
        fam = family_from_config(cfg)
        rec = an.extract_coefficients_monomials(fam, 0.0, N=24)
        inst = instantiate(fam, 0.0, 24)
        for j in range(r):
            nodes = rec[j].nodes
            gap = np.max(np.abs(rec[j].eval_at(nodes)
                                - inst.coeffs[j].eval_at(nodes)))
            worst = max(worst, float(gap))
    assert worst <= 1e-10
    _report(4, "monomial extraction", f"max recovery gap {worst:.2e}")


def test_acceptance_05_holder_norm_correctness():
    """sqrt seminorm, ramp norm, homogeneity, triangle inequality."""
    idx_h = HolderIndex(0, 0.5)
    g = interpolate("powabs(t, 0.5)", (0.0, 1.0), 32)
    semi = holder_seminorm(g, idx_h, 4096)
    assert abs(semi - 1.0) <= 1e-3

    ramp = interpolate("t", (0.0, 1.0), 8)
    total = holder_norm(ramp, HolderIndex(0, 1.0), 1024).total
    assert abs(total - 2.0) <= 1e-12

    rng = np.random.default_rng(31)
    idx = HolderIndex(0, 0.7)
    worst_h = worst_t = 0.0
    for _ in range(50):
        f = GridFunction(rng.standard_normal((1, 1, 17))
                         + 1j * rng.standard_normal((1, 1, 17)), (0.0, 1.0))
        h = GridFunction(rng.standard_normal((1, 1, 17)), (0.0, 1.0))
        c = float(rng.standard_normal()) * 2.0
        nf = holder_norm(f, idx, 256).total
        nh = holder_norm(h, idx, 256).total
        gap_h = abs(holder_norm(f.scale(c), idx, 256).total - abs(c) * nf)
        worst_h = max(worst_h, gap_h / (1 + abs(c) * nf))
        gap_t = holder_norm(f + h, idx, 256).total - (nf + nh)
        worst_t = max(worst_t, gap_t)
    assert worst_h <= 1e-12 and worst_t <= 1e-12
    _report(5, "Holder norm correctness",
            f"sqrt seminorm {semi:.6f}, homogeneity {worst_h:.1e}, "
            f"triangle {worst_t:.1e}")


def test_acceptance_06_theorem1_band():
    """Error/discrepancy ratio band <= 1e2 over eps = 2^-1..2^-20."""
    eps_seq = [2.0 ** -k for k in range(1, 21)]
    for name in ("F1_smooth_perturb", "F2_boundary_perturb"):
        t0 = time.perf_counter()
        rep = an.two_sided_sweep(gallery(name), eps_seq, N=32, M=1024)
        elapsed = time.perf_counter() - t0
        width = rep.kappa_hat_high / rep.kappa_hat_low
        errors = [r.error for r in rep.records]
        assert not any(r.failure for r in rep.records)
        assert width <= 1e2
        assert an.tends_to_zero(errors)
        assert elapsed < 30.0
        _report(6, f"two-sided band {name}",
                f"band [{rep.kappa_hat_low:.3f}, {rep.kappa_hat_high:.3f}] "
                f"width {width:.2f}, {elapsed:.1f}s")


def test_acceptance_07_main_theorem_agreement():
    """Criterion verdict matches behavior verdict on every family."""
    for name in GALLERY_NAMES:
        v = an.main_theorem_suite(gallery(name),
                                  an.geometric_eps(1.0, 0.5, 14),
                                  N=24, M=512)
        assert v.agreement, f"{name}: criterion={v.criterion} " \
                            f"behavior={v.behavior}"
    _report(7, "Main Theorem agreement", "all 6 families agree")


def test_acceptance_08_theorem2_consistency():
    """P(eps) <= c2 * S(eps) on F1; tails move together; F4 stalls."""
    r1 = an.theorem2_equivalence_check(gallery("F1_smooth_perturb"),
                                       an.geometric_eps(1.0, 0.5, 12),
                                       N=16, M=512)
    assert r1.bound_holds
    assert r1.S_tends_to_zero and r1.P_tends_to_zero
    r4 = an.theorem2_equivalence_check(gallery("F4_limitI_violated"),
                                       an.geometric_eps(1.0, 0.5, 12),
                                       N=32, M=512)
    assert not r4.S_tends_to_zero and not r4.P_tends_to_zero
    assert r4.joint
    _report(8, "operator-convergence consistency",
            f"c2={r1.c2:g}, F1 both decay, F4 both stall")


def test_acceptance_09_condition_zero_detector():
    """Margins: periodic-difference singular, Dirichlet comfortably regular."""
    inst_p = instantiate(gallery("F3_cond0_violated"), 0.0, 16)
    cm_p = characteristic_matrix(
        inst_p.B, fundamental_matrix(build_companion(inst_p)).X)
    cfg = {
        "r": 2, "m": 1, "n": 0, "alpha": 1.0, "interval": [0.0, 1.0],
        "eps0": 1.0, "coeffs": [[["0"]], [["0"]]], "rhs": ["0"],
        "boundary": {"point_terms": [
            {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
            {"order": 0, "point": 1.0, "coeff": [["0"], ["1"]]}]},
        "target": ["0", "0"],
    }
    inst_d = instantiate(family_from_config(cfg), 0.0, 16)
    cm_d = characteristic_matrix(
        inst_d.B, fundamental_matrix(build_companion(inst_d)).X)
    assert cm_p.margin < 1e-10
    assert cm_d.margin > 0.1
    _report(9, "Condition (0) detector",
            f"periodic margin {cm_p.margin:.1e}, "
            f"Dirichlet margin {cm_d.margin:.3f}")


def test_acceptance_10_discrete_fredholm():
    """Square collocation nullity 0 whenever Condition (0) holds."""
    checked = []
    for name in GALLERY_NAMES:
        if name == "F3_cond0_violated":
            assert fredholm_nullity(instantiate(gallery(name), 0.0, 24)) >= 1
            continue
        nullity = fredholm_nullity(instantiate(gallery(name), 0.0, 24))
        assert nullity == 0, f"{name}: nullity {nullity}"
        checked.append(name)
    _report(10, "discrete Fredholm check",
            f"nullity 0 on {len(checked)} regular families, "
            f"nontrivial kernel flagged on F3")
