"""Problem families, boundary operators, configs, and the gallery."""
import gc
import json

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from hbvp import chebyshev, cli
from hbvp.grid import HolderIndex, ShapeError, holder_norm, interpolate
from hbvp.problem import (ConfigError, GALLERY_NAMES, _gallery_config,
                          _quadrature, apply_B, boundary_matrix,
                          boundedness_certificate, family_from_config,
                          gallery, instantiate, load_problem)


def test_gallery_names_and_unknown():
    for name in GALLERY_NAMES:
        fam = gallery(name)
        assert fam.name == name
    with pytest.raises(KeyError):
        gallery("F7_does_not_exist")


def test_instantiate_f1_at_half():
    fam = gallery("F1_smooth_perturb")
    inst = instantiate(fam, 0.5, 16)
    assert np.allclose(inst.coeffs[0].values, 1.5)
    assert np.allclose(inst.c, [0.0, 1.0])


def test_instantiate_range_check():
    fam = gallery("F1_smooth_perturb")
    with pytest.raises(ValueError):
        instantiate(fam, 1.0, 16)  # eps0 = 1 is excluded
    with pytest.raises(ValueError):
        instantiate(fam, -0.1, 16)


def test_instantiate_deterministic():
    fam = gallery("F5_multipoint_integral")
    a = instantiate(fam, 0.3, 16)
    b = instantiate(fam, 0.3, 16)
    assert np.array_equal(a.coeffs[0].values, b.coeffs[0].values)
    assert np.array_equal(a.rhs.values, b.rhs.values)
    assert np.array_equal(a.c, b.c)


def _initial_conditions_B():
    """B = (y(0), y'(0)) for r=2, m=1 on [0,1], via a config family."""
    cfg = {
        "r": 2, "m": 1, "n": 0, "alpha": 1.0, "interval": [0.0, 1.0],
        "eps0": 1.0, "coeffs": [[["0"]], [["0"]]], "rhs": ["0"],
        "boundary": {"point_terms": [
            {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
            {"order": 1, "point": 0.0, "coeff": [["0"], ["1"]]},
        ]},
        "target": ["0", "0"],
    }
    return instantiate(family_from_config(cfg), 0.0, 16).B


def test_apply_B_initial_conditions():
    B = _initial_conditions_B()
    y = interpolate("t", (0.0, 1.0), 16)
    assert np.allclose(apply_B(B, y)[:, 0], [0.0, 1.0], atol=1e-13)


def test_apply_B_dirichlet_sin():
    cfg = {
        "r": 2, "m": 1, "n": 0, "alpha": 1.0,
        "interval": [0.0, float(np.pi / 2)], "eps0": 1.0,
        "coeffs": [[["1"]], [["0"]]], "rhs": ["0"],
        "boundary": {"point_terms": [
            {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
            {"order": 0, "point": float(np.pi / 2), "coeff": [["0"], ["1"]]},
        ]},
        "target": ["0", "1"],
    }
    inst = instantiate(family_from_config(cfg), 0.0, 16)
    y = interpolate("sin(t)", (0.0, np.pi / 2), 16)
    assert np.allclose(apply_B(inst.B, y)[:, 0], [0.0, 1.0], atol=1e-13)


def test_apply_B_integral_term():
    fam = gallery("F5_multipoint_integral")
    inst = instantiate(fam, 0.0, 16)
    y = interpolate("t", (0.0, 1.0), 16)
    out = apply_B(inst.B, y)[:, 0]
    # row 0: y(0.25) = 0.25; row 1: integral of 1*y over [0,1] = 1/2
    assert abs(out[0] - 0.25) < 1e-12
    assert abs(out[1] - 0.5) < 1e-12


def test_apply_B_linearity():
    fam = gallery("F5_multipoint_integral")
    B = instantiate(fam, 0.2, 16).B
    rng = np.random.default_rng(3)
    for _ in range(5):
        from hbvp.grid import GridFunction
        y = GridFunction(rng.standard_normal((1, 1, 17))
                         + 1j * rng.standard_normal((1, 1, 17)), (0.0, 1.0))
        z = GridFunction(rng.standard_normal((1, 1, 17)), (0.0, 1.0))
        a, b = rng.standard_normal(2)
        lhs = apply_B(B, y.scale(a) + z.scale(b))[:, 0]
        rhs = a * apply_B(B, y)[:, 0] + b * apply_B(B, z)[:, 0]
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def _f5_higher_orders():
    """F5 with its point term at order 2 (t = 0.4), its integral at order 1."""
    cfg = _gallery_config("F5_multipoint_integral")
    cfg["boundary"]["point_terms"][0].update(order=2, point=0.4)
    cfg["boundary"]["integral_terms"][0]["order"] = 1
    return family_from_config(cfg)


# y = (t - 0.3)^23 - 2 t^6 + t - 0.5 as a power series in u = t - 0.3, so
# that no cancellation spoils its point values and integrals on [0, 1]
_U = Polynomial([0.0, 1.0])
_Y = _U ** 23 - 2 * (_U + 0.3) ** 6 + _U - 0.2


def _y_at(k, t):
    return _Y.deriv(k)(t - 0.3)


def _y_integral(k, eps):
    """int_0^1 (1 + eps t) y^(k)(t) dt, F5's integral row."""
    F = ((1 + eps * (_U + 0.3)) * _Y.deriv(k)).integ()
    return F(0.7) - F(-0.3)


@pytest.mark.parametrize("family, rows", [
    pytest.param(lambda: gallery("F2_boundary_perturb"),
                 lambda e: [_y_at(0, 0.0) + e * _y_at(1, 0.0), _y_at(0, 1.0)],
                 id="F2_boundary_perturb"),
    pytest.param(lambda: gallery("F5_multipoint_integral"),
                 lambda e: [_y_at(0, 0.25), _y_integral(0, e)],
                 id="F5_multipoint_integral"),
    pytest.param(_f5_higher_orders,
                 lambda e: [_y_at(2, 0.4), _y_integral(1, e)],
                 id="F5-point-order2-integral-order1")])
def test_apply_B_matches_closed_form(family, rows):
    # F2 has an order-1 point term, F5 an off-node point and an integral
    # term; y has degree N - 1 with N even, so the order-N Clenshaw-Curtis
    # rule integrates the degree-N integrand exactly
    N, eps = 24, 0.3
    inst = instantiate(family(), eps, N)
    y = interpolate("(t-0.3)^23 - 2*t^6 + t - 0.5", (0.0, 1.0), N)
    want = np.array(rows(eps))
    got = apply_B(inst.B, y)[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_order_two_point_row_is_accurate_at_high_degree():
    # D applied twice to the point row, not the row times D @ D, whose
    # roundoff grows with N (8.5e-10 relative here)
    N = 256
    inst = instantiate(_f5_higher_orders(), 0.3, N)
    y = interpolate("(t-0.3)^23 - 2*t^6 + t - 0.5", (0.0, 1.0), N)
    got, want = apply_B(inst.B, y)[0, 0], _y_at(2, 0.4)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_boundary_matrix_leaves_no_reference_cycle():
    B = instantiate(_f5_higher_orders(), 0.3, 32).B
    boundary_matrix(B, 32)   # fill the caches it reads
    gc.disable()
    try:
        gc.collect()
        boundary_matrix(B, 32)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_apply_B_rejects_a_function_with_the_wrong_number_of_rows():
    B = instantiate(gallery("F1_smooth_perturb"), 0.3, 16).B
    with pytest.raises(ShapeError):
        apply_B(B, interpolate([["t"], ["1"]], (0.0, 1.0), 16))


def test_boundedness_certificate():
    idx = HolderIndex(2, 1.0)  # solution space C^{n+r,alpha} with n=0, r=2
    rng = np.random.default_rng(17)
    for name in ("F1_smooth_perturb", "F5_multipoint_integral"):
        B = instantiate(gallery(name), 0.4, 16).B
        cb = boundedness_certificate(B)
        for _ in range(20):
            coeffs = rng.standard_normal(5)
            src = "+".join(f"{c}*t^{k}" for k, c in enumerate(coeffs))
            y = interpolate(src.replace("+-", "-"), (0.0, 1.0), 16)
            lhs = float(np.linalg.norm(apply_B(B, y)[:, 0], ord=1))
            rhs = cb * holder_norm(y, idx, 512).total
            assert lhs <= rhs + 1e-10


def test_quadrature_weights_built_once_per_degree(tmp_path, monkeypatch):
    built = []
    weights = chebyshev.clenshaw_curtis_weights

    def recording(*args):
        built.append(args)
        return weights(*args)

    monkeypatch.setattr(chebyshev, "clenshaw_curtis_weights", recording)
    _quadrature.cache_clear()
    argv = ["verify", "--gallery", "F5_multipoint_integral"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert built and len(built) == len(set(built))
    t, w = _quadrature(*built[0])
    assert not t.flags.writeable and not w.flags.writeable


def test_f3_constants_in_kernel():
    # periodic-difference boundary rows annihilate constants
    inst = instantiate(gallery("F3_cond0_violated"), 0.0, 16)
    one = interpolate("1", (0.0, 1.0), 16)
    assert np.max(np.abs(apply_B(inst.B, one)[:, 0])) < 1e-12


def test_f4_coefficient_does_not_converge():
    fam = gallery("F4_limitI_violated")
    idx = fam.idx
    from hbvp.analysis import _coeff_diffs
    norms = [holder_norm(dict(_coeff_diffs(fam, eps, 32))[0], idx, 512).total
             for eps in (0.25, 0.05, 0.01)]
    assert min(norms) > 0.5  # bounded away from zero


def test_config_missing_key_path():
    with pytest.raises(ConfigError) as exc:
        family_from_config({"r": 2})
    assert "m" in str(exc.value)


def test_config_bad_expression_cites_path():
    cfg = {
        "r": 1, "m": 1, "n": 0, "alpha": 1.0, "interval": [0.0, 1.0],
        "eps0": 1.0, "coeffs": [[["t +* 2"]]], "rhs": ["0"],
        "boundary": {"point_terms": [
            {"order": 0, "point": 0.0, "coeff": [["1"]]}]},
        "target": ["0"],
    }
    with pytest.raises(ConfigError) as exc:
        family_from_config(cfg)
    assert "coeffs[0]" in str(exc.value)


def test_config_bad_interval_and_order():
    base = {
        "r": 1, "m": 1, "n": 0, "alpha": 1.0, "eps0": 1.0,
        "coeffs": [[["0"]]], "rhs": ["0"],
        "boundary": {"point_terms": [
            {"order": 0, "point": 0.0, "coeff": [["1"]]}]},
        "target": ["0"],
    }
    with pytest.raises(ConfigError):
        family_from_config(dict(base, interval=[1.0, 0.0]))
    bad = dict(base, interval=[0.0, 1.0])
    bad["boundary"] = {"point_terms": [
        {"order": 5, "point": 0.0, "coeff": [["1"]]}]}
    with pytest.raises(ConfigError) as exc:
        family_from_config(bad)
    assert "order" in str(exc.value)


def test_load_problem_json(tmp_path):
    cfg = {
        "r": 2, "m": 1, "n": 0, "alpha": 1.0, "interval": [0.0, 1.0],
        "eps0": 1.0, "coeffs": [[["1+eps"]], [["0"]]], "rhs": ["exp(t)"],
        "boundary": {"point_terms": [
            {"order": 0, "point": 0.0, "coeff": [["1"], ["0"]]},
            {"order": 0, "point": 1.0, "coeff": [["0"], ["1"]]}]},
        "target": ["0", "1"],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(cfg))
    fam = load_problem(str(path))
    assert fam.r == 2 and fam.m == 1
    inst = instantiate(fam, 0.25, 16)
    assert np.allclose(inst.coeffs[0].values, 1.25)

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError):
        load_problem(str(bad))


def test_target_vector_eps_dependence():
    fam = gallery("F5_multipoint_integral")
    assert np.allclose(fam.target_vector(0.0), [0.0, 1.0])
    assert np.allclose(fam.target_vector(0.3), [0.3, 1.0])


@pytest.mark.parametrize("key, value", [
    ("interval", [0.0, float("inf")]), ("interval", [float("-inf"), 1.0]),
    ("eps0", float("nan")), ("eps0", float("inf"))],
    ids=["interval-inf", "interval-minus-inf", "eps0-nan", "eps0-inf"])
def test_non_finite_interval_or_eps0_is_a_config_error(key, value, tmp_path,
                                                       capsys):
    # JSON reads Infinity and NaN; each command rejects them at their key
    # on load, not as a failed solve or an eps outside [0, nan)
    cfg = dict(_gallery_config("F1_smooth_perturb"), **{key: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as exc:
        load_problem(str(path))
    assert exc.value.path == key
    for command in (["solve"], ["sweep", "--count", "2"], ["verify"]):
        assert cli.main(command + ["--config", str(path), "--out",
                                   str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")


@pytest.mark.parametrize("mutate, path", [
    (lambda cfg: cfg.update(alpha=True), "alpha"),
    (lambda cfg: cfg.update(eps0=True), "eps0"),
    (lambda cfg: cfg.update(interval=[False, True]), "interval"),
    (lambda cfg: cfg["boundary"]["point_terms"][0].update(point=True),
     "boundary.point_terms[0].point")],
    ids=["alpha", "eps0", "interval", "point"])
def test_boolean_for_a_real_number_is_a_config_error(mutate, path):
    # float() reads true as 1.0 and false as 0.0; the config does not
    cfg = _gallery_config("F1_smooth_perturb")
    mutate(cfg)
    with pytest.raises(ConfigError, match="expected a real number") as exc:
        family_from_config(cfg)
    assert exc.value.path == path


def _mentioning_t(key, value):
    def mutate(cfg):
        if key == "target":
            cfg["target"][1] = value
        else:
            cfg["boundary"]["point_terms"][1]["coeff"][1][0] = value
    return mutate


@pytest.mark.parametrize("mutate, path", [
    (_mentioning_t("target", "1+t"), "target[1]"),
    (_mentioning_t("coeff", "exp(t)"), "boundary.point_terms[1].coeff[1][0]"),
    (_mentioning_t("target", "1 + t - t"), "target[1]")],
    ids=["target", "point-coeff", "target-cancelling-t"])
def test_t_in_an_eps_only_entry_is_a_config_error(mutate, path):
    # target and point-term coefficients are functions of eps alone; a t
    # in them was read at t = 0
    cfg = _gallery_config("F1_smooth_perturb")
    mutate(cfg)
    with pytest.raises(ConfigError) as exc:
        family_from_config(cfg)
    assert exc.value.path == path
    assert "in eps only" in str(exc.value)
