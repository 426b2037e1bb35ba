"""Limit conditions, sweeps, criterion agreement, operator convergence."""
import json
from dataclasses import astuple, replace

import numpy as np
import pytest

from hbvp import analysis as an
from hbvp import cli
from hbvp import expr as ex
from hbvp import grid
from hbvp import solver as solver_mod
from hbvp.chebyshev import bary_matrix
from hbvp.grid import HolderIndex, holder_norm
from hbvp.problem import (GALLERY_NAMES, _gallery_config, apply_B,
                          boundary_matrix, boundedness_certificate,
                          family_from_config, gallery, instantiate,
                          instantiate_stack)
from hbvp.solver import ConditionZeroViolated, solve_bvp_direct

EPS_SHORT = an.geometric_eps(1.0, 0.5, 10)
EPS_FULL = an.geometric_eps(1.0, 0.5, 20)


def test_tends_to_zero_semantics():
    assert an.tends_to_zero([2 ** -k for k in range(1, 11)])
    assert an.tends_to_zero([0.0] * 10)               # exactly-zero sequences
    assert not an.tends_to_zero([1.0] * 10)           # stalled
    assert not an.tends_to_zero([1.0, 0.5, 0.6, 0.4, 0.3, 0.35])  # not monotone tail
    assert not an.tends_to_zero([1.0, None, 0.1])     # failures poison the verdict


@pytest.mark.parametrize("seq, verdict", [
    ([1, .5, .25, .1, .01, 1e-4, 1e-6], True),
    ([1.0, 0.5, 0.6, 0.4, 0.3, 0.35], False)])
@pytest.mark.parametrize("kind", [list, tuple, iter])
def test_tends_to_zero_reads_any_iterable_once(seq, verdict, kind):
    assert an.tends_to_zero(kind(seq)) is verdict


def test_geometric_eps():
    seq = an.geometric_eps(1.0, 0.5, 3)
    assert seq == [0.5, 0.25, 0.125]


def test_discrepancy_zero_for_exact_solution():
    fam = gallery("F1_smooth_perturb")
    eps = 0.25
    inst = instantiate(fam, eps, 32)
    y_eps = solve_bvp_direct(inst).y
    d = an.discrepancy(fam, eps, y_eps, direct=True, M=512)
    assert d < 1e-6


def test_discrepancy_scales_linearly_on_f1():
    fam = gallery("F1_smooth_perturb")
    y0 = solve_bvp_direct(instantiate(fam, 0.0, 32)).y
    d1 = an.discrepancy(fam, 0.2, y0, M=512)
    d2 = an.discrepancy(fam, 0.1, y0, M=512)
    assert d1 == pytest.approx(2 * d2, rel=1e-9)
    assert d1 > 0


def test_discrepancy_direct_agrees_at_moderate_eps():
    fam = gallery("F1_smooth_perturb")
    y0 = solve_bvp_direct(instantiate(fam, 0.0, 32)).y
    d_cancelled = an.discrepancy(fam, 0.25, y0, M=512)
    d_direct = an.discrepancy(fam, 0.25, y0, M=512, direct=True)
    assert d_direct == pytest.approx(d_cancelled, rel=1e-3)


def test_limit_conditions_f1_condI_equals_eps():
    fam = gallery("F1_smooth_perturb")
    v = an.main_theorem_suite(fam, EPS_SHORT, N=16, M=256)
    for eps, row in zip(v.eps_sequence, v.condI_norms):
        assert row[0] == pytest.approx(eps, rel=1e-9)  # norm of constant eps
        assert row[1] < 1e-14
    assert v.condI_ok


def test_limit_conditions_f4_condI_fails():
    v = an.main_theorem_suite(gallery("F4_limitI_violated"),
                              EPS_SHORT, N=32, M=256)
    assert not v.condI_ok
    assert v.condII_ok  # boundary operator is eps-independent


def test_limit_conditions_eps_independent_family_all_zero():
    # Condition (0) fails at eps = 0, and the walk still measures I and II
    v = an.main_theorem_suite(gallery("F3_cond0_violated"),
                              EPS_SHORT, N=16, M=256)
    flat = [x for row in v.condI_norms for x in row]
    assert max(flat + v.condII_probe) < 1e-12


def _count_instantiations(monkeypatch):
    """Make analysis record, per instantiate or instantiate_stack call, the
    eps it instantiates (calls), and the eps = 0 operators it builds
    (zero_B)."""
    calls, zero_B = [], []

    def recording(insts):
        calls.append([inst.eps for inst in insts])
        zero_B.extend(inst.B for inst in insts if inst.eps == 0.0)
        return insts

    monkeypatch.setattr(an, "instantiate", lambda fam, eps, N: recording(
        [instantiate(fam, eps, N)])[0])
    monkeypatch.setattr(an, "instantiate_stack", lambda fam, eps, N:
                        recording(instantiate_stack(fam, eps, N)))
    return calls, zero_B


def _count_B_applications(monkeypatch):
    """`_count_instantiations`, and per apply_B or boundary_matrix call
    whether that call applies one of the eps = 0 operators (seen)."""
    calls, zero_B = _count_instantiations(monkeypatch)
    seen = []

    def counting(apply):
        def call(B, arg):
            seen.append(any(B is B0 for B0 in zero_B))
            return apply(B, arg)
        return call

    monkeypatch.setattr(an, "apply_B", counting(apply_B))
    monkeypatch.setattr(an, "boundary_matrix", counting(boundary_matrix))
    return calls, zero_B, seen


def test_limit_conditions_apply_B0_once_per_probe(monkeypatch):
    # B(0) y is the same vector at every eps: the 7 probes take one matmul
    # by B(0)'s matrix, and the eps = 0 solution y0 one application where
    # Condition (0) gives one; each swept B(eps) is applied the same way;
    # eps = 0 is instantiated alone, the 20 swept eps once each, in a stack
    for name, solved in (("F1_smooth_perturb", 1), ("F3_cond0_violated", 0)):
        fam = gallery(name)
        calls, zero_B, seen = _count_B_applications(monkeypatch)
        v = an.main_theorem_suite(fam, N=16, M=256)
        assert len(an.default_probes(fam.r, fam.m, fam.interval, 16)) == 7
        assert len(v.eps_sequence) == 20
        assert calls == [[0.0], v.eps_sequence]
        assert len(zero_B) == 1
        per_eps = 1 + solved
        assert seen.count(True) == per_eps
        assert len(seen) == per_eps * (1 + 20)


def test_verify_all_instantiates_and_differences_each_eps_once(monkeypatch,
                                                               capsys):
    # one eps walk per family: eps = 0 and the 20 swept eps are instantiated
    # once each, and the coefficient differences built once per walk
    calls, _ = _count_instantiations(monkeypatch)
    built = []
    diff_exprs = an._diff_exprs
    monkeypatch.setattr(an, "_diff_exprs", lambda fam, eps: built.append(
        fam.name) or diff_exprs(fam, eps))
    assert cli.main(["verify", "--all", "--degree", "24",
                     "--samples", "512"]) == 0
    assert capsys.readouterr().out.count("AGREEMENT") == 6
    eps = [e for c in calls for e in c]
    assert len(eps) == 6 * 21 and eps.count(0.0) == 6
    assert len(calls) == 6 * 2
    assert sorted(built) == sorted(GALLERY_NAMES)


def test_two_sided_sweep_applies_B0_once(monkeypatch):
    # B(0) y0 is the same vector at every eps: one application per sweep
    fam = gallery("F1_smooth_perturb")
    calls, zero_B, seen = _count_B_applications(monkeypatch)
    rep = an.two_sided_sweep(fam, N=16, M=256)
    assert len(rep.records) == 20 and len(zero_B) == 1
    assert calls == [[0.0], [r.eps for r in rep.records]]
    assert seen.count(True) == 1 and len(seen) == 1 + 20


def _singular_config():
    """F1 with y(0)'s point coefficient 1 - 2 eps: B(0.5) drops y(0)."""
    cfg = _gallery_config("F1_smooth_perturb")
    cfg["boundary"]["point_terms"][0]["coeff"] = [["1-2*eps"], ["0"]]
    return cfg


@pytest.mark.parametrize("config", [
    *(pytest.param(lambda n=name: _gallery_config(n), id=name[:2])
      for name in ("F1_smooth_perturb", "F2_boundary_perturb",
                   "F4_limitI_violated", "F5_multipoint_integral",
                   "F6_holder_rough")),
    pytest.param(_singular_config, id="singular")])
def test_stacked_sweep_is_the_sweeps_of_one_eps(config):
    # stacking is invisible: every field of every record has the bits of
    # the sweep of its eps alone, a singular eps in the stack included
    fam = family_from_config(config())
    stacked = an.two_sided_sweep(fam, N=16, M=256).records
    alone = [an.two_sided_sweep(fam, [rec.eps], N=16, M=256).records[0]
             for rec in stacked]
    assert [repr(astuple(r)) for r in stacked] == [
        repr(astuple(r)) for r in alone]
    failures = [rec.failure for rec in stacked]
    assert failures == [None] * 20 or failures == (
        ["ConditionZeroViolated"] + [None] * 19)


def test_a_singular_and_a_rejected_eps_in_one_stack_keep_their_records(
        monkeypatch):
    # eps = 0.5 fails Condition (0) and eps = 0.25, made to fail, the
    # residual gate, both in the one stack the walk gates at once: every
    # record has the bits of the sweep of its eps alone
    def reject_quarter(insts, ys):
        return [1.0 if inst.eps == 0.25 else res
                for inst, res in zip(insts, residuals(insts, ys))]

    residuals, gate, stacks = solver_mod._residuals, an.solve_stack, []
    monkeypatch.setattr(solver_mod, "_residuals", reject_quarter)
    monkeypatch.setattr(an, "solve_stack",
                        lambda fs: stacks.append(len(fs)) or gate(fs))
    fam = family_from_config(_singular_config())
    eps = an.geometric_eps(1.0, 0.5, 6)
    stacked = an.two_sided_sweep(fam, eps, N=16, M=256).records
    assert stacks == [6]
    alone = [an.two_sided_sweep(fam, [e], N=16, M=256).records[0]
             for e in eps]
    assert [repr(astuple(r)) for r in stacked] == [
        repr(astuple(r)) for r in alone]
    assert [rec.failure for rec in stacked] == [
        "ConditionZeroViolated", "SolveRejected"] + [None] * 4


@pytest.mark.parametrize("count, solvable", [(5, False), (6, True),
                                              (20, True)])
def test_solvability_reads_the_rows_after_the_last_failed_eps(count,
                                                              solvable):
    # the theorem speaks of small eps: the singular eps = 0.5 leaves the
    # rows after it, which count only when ZERO_TAIL_LEN of them exist
    fam = family_from_config(_singular_config())
    v = an.main_theorem_suite(fam, an.geometric_eps(1.0, 0.5, count), N=16,
                              M=256)
    assert v.solvable is solvable
    assert v.errors_tend_to_zero is v.behavior is (count == 20)
    assert v.agreement


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_main_theorem_suite_evaluates_the_2N_grid_once_per_walk(name,
                                                                monkeypatch):
    # F1 and F4 evaluate their one coefficient difference and their rhs
    # difference once for the stack of 20 eps, not once per (probe, eps)
    # pair; the others have no coefficient difference, so no product at
    # degree 2N.  The probe calibration evaluates each of the 7 probes'
    # derivatives once per process, for every family alike
    seen, evaluate = [], grid._eval_exprs
    nodes = grid._grid_data(48, 0.0, 1.0)[0]

    def counting(sources, ts, eps, a, b):
        if np.array_equal(ts, nodes):
            seen.append(sources.shape)
        return evaluate(sources, ts, eps, a, b)

    monkeypatch.setattr(grid, "_eval_exprs", counting)
    monkeypatch.setattr(an, "_eval_exprs", counting)
    an._probe_data.cache_clear()
    an.main_theorem_suite(gallery(name), N=24, M=512)
    diffs = name.startswith(("F1", "F4"))
    assert len(seen) == (2 if diffs else 0) + 7
    seen.clear()
    an.main_theorem_suite(gallery(name), N=24, M=512)
    assert len(seen) == (2 if diffs else 0)


def test_probe_calibration_evaluates_no_derivative_at_the_N_nodes(
        monkeypatch):
    # the 7 probes are evaluated at the degree-N nodes once, for Y; their
    # y' only at the degree-2N nodes and the sample points
    seen, evaluate = [], grid._eval_exprs
    nodes = grid._grid_data(24, 0.0, 1.0)[0]

    def counting(sources, ts, eps, a, b):
        if np.array_equal(ts, nodes):
            seen.append(sources.shape)
        return evaluate(sources, ts, eps, a, b)

    monkeypatch.setattr(grid, "_eval_exprs", counting)
    monkeypatch.setattr(an, "_eval_exprs", counting)
    an._probe_data.cache_clear()
    fam = gallery("F1_smooth_perturb")
    an._probe_data(fam.r, fam.m, fam.idx, fam.interval, 24, 512)
    assert seen == [(1, 1)] * 7


def test_default_f6_sweep_norms_take_no_derivative(monkeypatch):
    # F6's discrepancies are C^{0,1/2} norms of h, which need no h', and
    # the errors' three orders are differentiated as one stack, so no norm
    # takes a derivative; the residual gates form y' and y'' of a stack by
    # matmul, so they take none either: what remains is the powabs centres,
    # searched once per evaluation, as the rhs's centre does not move:
    # at the instances, h at the nodes, h at the samples and eps = 0
    calls = {"derivative": 0, "diff_t": 0, "singular_centers": 0}
    derivative = grid.GridFunction.derivative
    diff_t, centers = ex.diff_t, ex.singular_centers

    def counting(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(grid.GridFunction, "derivative",
                        counting("derivative", derivative))
    monkeypatch.setattr(ex, "diff_t", counting("diff_t", diff_t))
    monkeypatch.setattr(ex, "singular_centers",
                        counting("singular_centers", centers))
    rep = an.two_sided_sweep(gallery("F6_holder_rough"))
    assert len(rep.records) == 20
    assert calls == {"derivative": 0, "diff_t": 18, "singular_centers": 4}


def test_default_f6_sweep_norms_sample_each_order_as_one_stack(monkeypatch):
    # the 20 errors (orders 0-2) and the 20 discrepancies (order 0) are
    # each one stack: one matmul by the sample matrix per order, one
    # `_eval_exprs` at the sample points; each seminorm scan takes its 20
    # rows as one group, with no nested call
    class CountingET(np.ndarray):
        def __rmatmul__(self, vals):
            matmuls.append(len(vals))
            return vals @ self.view(np.ndarray)

    matmuls, evals, scans = [], [], []
    sample_grid, evaluate, pair_max = (grid._sample_grid, grid._eval_exprs,
                                       grid._pair_max)

    def sampling(*args):
        ts, ET = sample_grid(*args)
        return ts, ET.view(CountingET)

    def counting(sources, ts, eps, a, b):
        if len(ts) == len(sample_grid(32, a, b, 1024)[0]):
            evals.append(np.size(eps))
        return evaluate(sources, ts, eps, a, b)

    def scanning(V, ts, alpha):
        scans.append((len(V), alpha))
        return pair_max(V, ts, alpha)

    monkeypatch.setattr(grid, "_sample_grid", sampling)
    monkeypatch.setattr(grid, "_eval_exprs", counting)
    monkeypatch.setattr(an, "_eval_exprs", counting)
    monkeypatch.setattr(grid, "_pair_max", scanning)
    rep = an.two_sided_sweep(gallery("F6_holder_rough"))
    assert len(rep.records) == 20
    assert matmuls == [20] * 3 and evals == [20]
    assert scans == [(20, 0.5)] * 2


def _count_factorizations(monkeypatch):
    """Record the shape of each np.linalg.solve call's matrix argument."""
    shapes, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append(
        a.shape) or solve(a, b))
    return shapes


def test_default_sweep_makes_two_factorization_calls(monkeypatch):
    # eps = 0 alone, then the 20 swept eps as one stack, not one per eps
    shapes = _count_factorizations(monkeypatch)
    rep = an.two_sided_sweep(gallery("F1_smooth_perturb"))
    assert len(rep.records) == 20
    assert shapes == [(1, 33, 33), (20, 33, 33)]


def test_a_stack_chunked_under_the_byte_budget_is_invisible(monkeypatch):
    fam = gallery("F1_smooth_perturb")
    whole = an.two_sided_sweep(fam, N=16, M=256).records
    monkeypatch.setattr(solver_mod, "STACK_BYTES", 3 * 16 * 17 ** 2 + 1)
    shapes = _count_factorizations(monkeypatch)
    chunked = an.two_sided_sweep(fam, N=16, M=256).records
    assert [repr(astuple(r)) for r in chunked] == [
        repr(astuple(r)) for r in whole]
    assert shapes == [(1, 17, 17)] + [(3, 17, 17)] * 6 + [(2, 17, 17)]


def test_two_sided_sweep_f1_band():
    rep = an.two_sided_sweep(gallery("F1_smooth_perturb"), EPS_FULL,
                             N=24, M=512)
    assert len(rep.records) == 20
    assert not rep.band_violation
    assert rep.kappa_hat_high / rep.kappa_hat_low <= 1e2
    errors = [r.error for r in rep.records]
    assert an.tends_to_zero(errors)
    for r in rep.records:
        assert rep.kappa_hat_low <= r.ratio <= rep.kappa_hat_high


@pytest.mark.parametrize("name", [
    "F1_smooth_perturb", "F2_boundary_perturb", "F4_limitI_violated",
    "F5_multipoint_integral", "F6_holder_rough"])
def test_sweep_discrepancy_equals_public_discrepancy(name):
    # coefficient (F1, F4), boundary (F2), rhs and integral density (F5) and
    # rough rhs (F6) perturbations: the stack of one has the sweep's bits
    fam = gallery(name)
    rep = an.two_sided_sweep(fam, [0.5, 0.125], N=16, M=256)
    y0 = solve_bvp_direct(instantiate(fam, 0.0, 16)).y
    for rec in rep.records:
        assert rec.discrepancy == an.discrepancy(fam, rec.eps, y0, N=16,
                                                 M=256)


def _rough_density_config():
    """y'' + y = exp(t), y(0) = 0, int (1 + eps |t - 0.3|^0.5) y = 1: an
    integral density that no quadrature rule integrates exactly."""
    return {
        "r": 2, "m": 1, "n": 0, "alpha": 0.5, "interval": [0.0, 1.0],
        "eps0": 1.0, "coeffs": [[["1"]], [["0"]]], "rhs": ["exp(t)"],
        "boundary": {
            "point_terms": [{"order": 0, "point": 0.0,
                             "coeff": [["1"], ["0"]]}],
            "integral_terms": [{"order": 0, "density": [
                ["0"], ["1+eps*powabs(t-0.3, 0.5)"]]}]},
        "target": ["0", "1"]}


@pytest.mark.parametrize("family, N, eps", [
    *(pytest.param(_rough_density_config, N, eps, id=f"{eps}-{N}")
      for eps in (0.25, 1e-3) for N in (16, 32, 64)),
    pytest.param(lambda: _gallery_config("F4_limitI_violated"), 384, 1e-3,
                 id="F4-0.001-384")])
def test_sweep_delta_is_the_difference_of_the_discrete_solves(family, N, eps):
    # the sweep's boundary data c_delta is that of the two discrete
    # problems, and its rhs the degree-2N product, so delta is
    # y_N(eps) - y_N(0) up to roundoff, also where 2N exceeds 512
    fam = family_from_config(family())
    inst0, inst = instantiate(fam, 0.0, N), instantiate(fam, eps, N)
    y0 = solve_bvp_direct(inst0).y
    rhs_diff, diffs = an._diff_exprs(fam, eps)
    hs, _, c_deltas = an._perturbations(fam, inst0, y0)(
        [inst], rhs_diff, an._diffs_2N(fam, diffs, np.array([eps]), N))
    delta = solve_bvp_direct(
        replace(inst, rhs=hs[0].resample(N), c=c_deltas[0])).y
    want = solve_bvp_direct(inst).y.values - y0.values
    assert np.max(np.abs(delta.values - want)) <= 1e-10


@pytest.mark.parametrize("N", [24, 32, 512])
@pytest.mark.parametrize("name", ["F1_smooth_perturb", "F4_limitI_violated"])
def test_the_degree_N_perturbation_is_h_interpolated_at_the_N_nodes(name, N):
    # the degree-N nodes are the even degree-2N nodes, so reading h there
    # keeps the bits of the 2N -> N barycentric matrix, zero signs included
    fam = gallery(name)
    eps = an.geometric_eps(fam.eps0, 0.5, 4)
    inst0 = instantiate(fam, 0.0, N)
    rhs_diff, diffs = an._diff_exprs(fam, eps[0])
    assert diffs   # a coefficient difference: h is formed at degree 2N
    hs, rhs, _ = an._perturbations(fam, inst0, solve_bvp_direct(inst0).y)(
        instantiate_stack(fam, eps, N), rhs_diff,
        an._diffs_2N(fam, diffs, np.array(eps), N))
    h = np.array([v.values for v in hs])
    want = h @ bary_matrix(hs[0].nodes, rhs[0].nodes).T
    got = np.array([v.values for v in rhs])
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_boundary_residual_is_that_of_the_solved_rows(tmp_path):
    cfg = tmp_path / "rough.json"
    cfg.write_text(json.dumps(_rough_density_config()))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--eps", "0.25",
                     "--out", str(out)]) == 0
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["boundary_residual"] <= 1e-10


def test_two_sided_sweep_degenerate_eps_zero():
    rep = an.two_sided_sweep(gallery("F1_smooth_perturb"), [0.0],
                             N=16, M=256)
    rec = rep.records[0]
    assert rec.error < 1e-10
    assert rec.discrepancy < 1e-10
    assert rec.ratio is None  # skipped, not fabricated


def test_discrepancy_triangle_control_invariant():
    """d <= C_hat * error with C_hat = 1 + K*sum||A_j|| + C_B."""
    from hbvp.grid import algebra_constant
    for name in ("F1_smooth_perturb", "F2_boundary_perturb"):
        fam = gallery(name)
        K = algebra_constant(fam.idx)
        rep = an.two_sided_sweep(fam, an.geometric_eps(1.0, 0.5, 8),
                                 N=24, M=512)
        for rec in rep.records:
            inst = instantiate(fam, rec.eps, 24)
            coeff_norms = sum(
                holder_norm(inst.coeffs[j], fam.idx, 512).total
                for j in range(fam.r))
            c_hat = 1.0 + K * coeff_norms + boundedness_certificate(inst.B)
            assert rec.discrepancy <= c_hat * rec.error * (1 + 1e-9)


def test_main_theorem_suite_positive_and_negative():
    v1 = an.main_theorem_suite(gallery("F1_smooth_perturb"),
                               an.geometric_eps(1.0, 0.5, 14), N=24, M=512)
    assert v1.criterion and v1.behavior and v1.agreement
    v4 = an.main_theorem_suite(gallery("F4_limitI_violated"),
                               an.geometric_eps(1.0, 0.5, 14), N=24, M=512)
    assert not v4.condI_ok
    assert not v4.errors_tend_to_zero
    assert v4.agreement
    v3 = an.main_theorem_suite(gallery("F3_cond0_violated"),
                               an.geometric_eps(1.0, 0.5, 14), N=24, M=512)
    assert not v3.cond0_ok and not v3.solvable and v3.agreement


def test_main_theorem_suite_factors_eps_zero_once(monkeypatch):
    # Condition (0) is read from the sweep's eps = 0 solve, so the eps = 0
    # bordered matrix is built once: 1 of 21 collocation matrices, the other
    # 20 built as one stack
    fam = gallery("F1_smooth_perturb")
    margin = solve_bvp_direct(instantiate(fam, 0.0, 24)).margin
    seen = []
    real = solver_mod.collocation_matrix

    def counting(insts, dtype):
        seen.append([inst.eps for inst in insts])
        return real(insts, dtype)

    monkeypatch.setattr(solver_mod, "collocation_matrix", counting)
    v = an.main_theorem_suite(fam, N=24, M=512)
    assert v.cond0_ok and v.cond0_margin == margin
    assert seen == [[0.0], v.eps_sequence]


def test_main_theorem_suite_condition_zero_violation_keeps_its_margin():
    fam = gallery("F3_cond0_violated")
    with pytest.raises(ConditionZeroViolated) as gate:
        solve_bvp_direct(instantiate(fam, 0.0, 24))
    v = an.main_theorem_suite(fam, an.geometric_eps(1.0, 0.5, 6), N=24,
                              M=256)
    assert not v.cond0_ok and not v.solvable
    assert v.cond0_margin == gate.value.margin


def test_extract_coefficients_constants():
    # r=2, m=1, A0=2, A1=3: L(1)=2, L(t)=3+2t
    cfg = {
        "r": 2, "m": 1, "n": 0, "alpha": 1.0, "interval": [0.0, 1.0],
        "eps0": 1.0, "coeffs": [[["2"]], [["3"]]], "rhs": ["0"],
        "boundary": {"point_terms": [
            {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
            {"order": 0, "point": 1.0, "coeff": [["0"], ["1"]]}]},
        "target": ["0", "0"],
    }
    fam = family_from_config(cfg)
    rec = an.extract_coefficients_monomials(fam, 0.0, N=16)
    assert np.max(np.abs(rec[0].values - 2.0)) < 1e-12
    assert np.max(np.abs(rec[1].values - 3.0)) < 1e-12


def test_extract_coefficients_f1_round_trip():
    fam = gallery("F1_smooth_perturb")
    rec = an.extract_coefficients_monomials(fam, 0.4, N=16)
    assert np.max(np.abs(rec[0].values - 1.4)) < 1e-9
    assert np.max(np.abs(rec[1].values)) < 1e-9


def test_theorem2_positive_and_negative():
    r1 = an.main_theorem_suite(gallery("F1_smooth_perturb"),
                               EPS_SHORT, N=16, M=256).theorem2
    assert r1.bound_holds
    assert r1.S_tends_to_zero and r1.P_tends_to_zero and r1.joint
    for e, s in zip(r1.eps_sequence, r1.S):
        assert s == pytest.approx(e, rel=1e-9)  # S(eps) = eps on F1
    r4 = an.main_theorem_suite(gallery("F4_limitI_violated"),
                               EPS_SHORT, N=32, M=256).theorem2
    assert not r4.S_tends_to_zero and not r4.P_tends_to_zero
    assert r4.joint
    r3 = an.main_theorem_suite(gallery("F3_cond0_violated"),
                               EPS_SHORT, N=16, M=256).theorem2
    assert max(r3.S) < 1e-12 and max(r3.P) < 1e-12  # eps-independent


def test_theorem2_S_sums_condition_I_norms():
    for name in ("F1_smooth_perturb", "F4_limitI_violated"):
        fam = gallery(name)
        v = an.main_theorem_suite(fam, EPS_SHORT, N=16, M=256)
        t2 = v.theorem2
        assert t2.eps_sequence == v.eps_sequence
        assert t2.S == [sum(row) for row in v.condI_norms]


def test_theorem2_P_exactly_zero_for_eps_independent_coefficients():
    t2 = an.main_theorem_suite(gallery("F2_boundary_perturb"),
                               EPS_SHORT, N=16, M=256).theorem2
    assert t2.P == [0.0] * len(EPS_SHORT)


def test_csv_formatting_round_trip():
    assert an.fmt(0.1) == "0.10000000000000001"
    assert float(an.fmt(np.pi)) == np.pi
    assert an.fmt(None) == ""
    assert an.fmt(True) == "true"


def test_array_rows_write_the_bytes_of_csv_writer_and_fmt(tmp_path):
    # a float table takes the one-format path; the same rows as lists take
    # csv.writer + fmt, and both end every line in CRLF
    rng = np.random.default_rng(5)
    table = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-300, 300,
                                                                (40, 5))
    table[0] = [-0.0, np.inf, -np.inf, np.nan, 5e-324]
    table[1] = [1e308, 0.0, -1e308, 0.1, -2.5e-310]
    cols = ("t", "re_y0", "im_y0", "re_y1", "im_y1")
    an.write_csv(str(tmp_path / "array.csv"), cols, table)
    an.write_csv(str(tmp_path / "lists.csv"), cols,
                 (list(row) for row in table))
    got = (tmp_path / "array.csv").read_bytes()
    assert got == (tmp_path / "lists.csv").read_bytes()
    assert got.count(b"\n") == got.count(b"\r\n") == 41
    assert got.endswith(b"\r\n")
    lines = got.split(b"\r\n")
    assert lines[1] == b"-0,inf,-inf,nan,4.9406564584124654e-324"
    assert lines[2].startswith(b"1e+308,0,-1e+308,0.10000000000000001,")


def test_sweep_report_serialization(tmp_path):
    rep = an.two_sided_sweep(gallery("F1_smooth_perturb"),
                             an.geometric_eps(1.0, 0.5, 4), N=16, M=256)
    path = tmp_path / "sweep.csv"
    rep.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("eps,error,discrepancy,ratio")
    assert len(lines) == 5
    # every numeric field parses back to a float
    for line in lines[1:]:
        eps, err = line.split(",")[:2]
        float(eps), float(err)


def test_a_stack_of_real_and_complex_deltas_keeps_each_sweep_alone(
        monkeypatch):
    # A_0 = 1 + i (eps - 0.25), with its eps = 0 slice given as 1: the
    # delta system at eps = 0.25 is real and those at 0.5 and 0.125
    # complex, so one stack mixes both and each row must still read as its
    # one-eps sweep
    cfg = dict(_gallery_config("F1_smooth_perturb"),
               coeffs=[[["1+i*(eps-0.25)"]], [["0"]]],
               coeffs_at_zero=[[["1"]], [["0"]]])
    fam = family_from_config(cfg)
    kinds, factor = [], solver_mod.factor

    def recording(instances):
        insts = list(instances)
        kinds.append([solver_mod._dtype([inst]) for inst in insts])
        return factor(insts)

    monkeypatch.setattr(solver_mod, "factor", recording)
    eps = [0.5, 0.25, 0.125]
    stacked = an.two_sided_sweep(fam, eps, N=24, M=256).records
    # the eps = 0 solve and the mixed stack, one call each: the mixed
    # stack is split by dtype inside the call
    assert kinds == [[float], [complex, float, complex]]
    alone = [an.two_sided_sweep(fam, [e], N=24, M=256).records[0] for e in eps]
    assert repr(stacked) == repr(alone)
