"""Command-line front end: exit codes, artifacts, determinism."""
import csv
import json

import numpy as np
import pytest

from hbvp import cli
from hbvp.analysis import two_sided_sweep
from hbvp.grid import _sample_grid
from hbvp.problem import _gallery_config, gallery
from hbvp.solver import SolveRejected, solve_bvp_direct


def run(argv):
    return cli.main(argv)


def test_solve_f1_exit_zero_and_summary(tmp_path):
    out = tmp_path / "out"
    code = run(["solve", "--gallery", "F1_smooth_perturb",
                "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["residual"] <= 1e-8
    assert summary["cond0_margin"] > 0.1
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "t,re_y0,im_y0"
    assert len(lines) > 100


def test_solve_and_sweep_report_the_same_cond0_margin(tmp_path):
    common = ["--gallery", "F1_smooth_perturb", "--eps", "0.25",
              "--degree", "16"]
    assert run(["solve"] + common + ["--out", str(tmp_path / "s")]) == 0
    assert run(["sweep"] + common + ["--samples", "256",
                                     "--out", str(tmp_path / "w")]) == 0
    summary = json.loads((tmp_path / "s" / "solve_summary.json").read_text())
    with open(tmp_path / "w" / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["cond0_margin"]) == summary["cond0_margin"]


def test_solve_f3_exit_two(capsys):
    code = run(["solve", "--gallery", "F3_cond0_violated"])
    assert code == 2
    assert "Condition (0)" in capsys.readouterr().err


def test_exactly_singular_collocation_is_condition_zero(tmp_path, capsys):
    # F3's bordered collocation matrix is exactly singular at N = 16: the
    # failed factorization is a Condition (0) violation, not a rejected solve
    code = run(["solve", "--gallery", "F3_cond0_violated", "--degree", "16",
                "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Condition (0) violated" in err
    assert "solve rejected" not in err


def test_linalg_error_is_a_rejected_solve(monkeypatch, capsys):
    def singular(inst):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "solve_bvp_direct", singular)
    assert run(["solve", "--gallery", "F1_smooth_perturb"]) == 2
    assert "solve rejected: Singular matrix" in capsys.readouterr().err


def test_malformed_config_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"r": 2, "m": 1}))
    code = run(["solve", "--config", str(bad)])
    assert code == 1
    assert "n" in capsys.readouterr().err  # cites the missing key


def _set(key, value):
    return lambda cfg: cfg.update({key: value})


def _point_term(i, **changes):
    return lambda cfg: cfg["boundary"]["point_terms"][i].update(changes)


FILE = "<the config file>"   # a path that is the file's own


@pytest.mark.parametrize("mutate, path", [
    (_set("r", "two"), "r"),
    (_set("r", 2.7), "r"),
    (_set("r", 0), "r"),
    (_set("m", 0), "m"),
    (_set("m", True), "m"),
    (_set("n", 0.5), "n"),
    (_set("n", -1), "n"),
    (_set("eps0", 0), "eps0"),
    (_set("eps0", -1), "eps0"),
    (_point_term(0, order=0.9), "boundary.point_terms[0].order"),
    (_point_term(1, order=False), "boundary.point_terms[1].order"),
    (_point_term(1, point=1.5), "boundary.point_terms[1].point"),
    (_set("boundary", {}), "boundary"),
    (lambda cfg: [cfg], FILE),
    (_set("eps0", "big"), "eps0"),
    (_set("alpha", [1]), "alpha"),
    (_set("interval", ["a", 1]), "interval"),
    (_set("interval", 5), "interval"),
    (_set("coeffs", 5), "coeffs"),
    (_set("rhs", 5), "rhs"),
    (_set("target", 3), "target"),
    (_set("boundary", []), "boundary"),
    (_set("boundary", "x"), "boundary"),
    (lambda cfg: cfg["boundary"].update(point_terms=3),
     "boundary.point_terms"),
    (lambda cfg: cfg["boundary"].update(point_terms=[3, 4]),
     "boundary.point_terms[0].order"),
    (lambda cfg: cfg["boundary"]["point_terms"][0].pop("order"),
     "boundary.point_terms[0].order"),
    (lambda cfg: cfg["boundary"]["point_terms"][0].update(point="left"),
     "boundary.point_terms[0].point"),
    (lambda cfg: cfg.update(coeffs_at_zero=cfg["coeffs"][:1]),
     "coeffs_at_zero"),
    (lambda cfg: cfg["coeffs"][0][0].__setitem__(0, "1/0"),
     "coeffs[0][0][0]"),
    (lambda cfg: cfg["rhs"].__setitem__(0, "0^-1"), "rhs[0]"),
    # a matrix or vector of the wrong size, too short or too long
    (lambda cfg: cfg["coeffs"][0][0].append("99"), "coeffs[0]"),
    (lambda cfg: cfg["coeffs"][1].append(["7"]), "coeffs[1]"),
    (lambda cfg: cfg["coeffs"][1].clear(), "coeffs[1]"),
    (lambda cfg: cfg["coeffs"][0][0].clear(), "coeffs[0]"),
    (lambda cfg: cfg["rhs"].append("junk"), "rhs"),
    (_set("rhs", []), "rhs"),
    (lambda cfg: cfg["target"].append("0"), "target"),
    (lambda cfg: cfg["target"].pop(), "target"),
    # a vector key of the wrong length counts expressions, not a matrix
    (_set("rhs", ["exp(t)", "1"]), "rhs: expected 1 expression(s), got 2"),
    (_set("target", ["0", "1", "2"]),
     "target: expected 2 expression(s), got 3"),
    (lambda cfg: cfg["boundary"]["point_terms"][0]["coeff"].append(["1"]),
     "boundary.point_terms[0].coeff"),
    (_point_term(0, coeff=[["1"]]), "boundary.point_terms[0].coeff"),
    (_point_term(0, coeff=[["1", "0"], ["0", "1"]]),
     "boundary.point_terms[0].coeff"),
    (_set("alpha", 2.0), "alpha"),
    (_set("coeffs", [[[1]], [["0"]]]), "coeffs[0][0][0]"),
    (_set("target", [0, "1"]), "target[0]"),
    (_point_term(0, order=3), "boundary.point_terms[0].order"),
    # an entry with no value at the eps solved (0): boundary and target
    # entries have no _at_zero key to give
    (_point_term(0, coeff=[["1+sin(1/eps)"], ["0"]]),
     "boundary.point_terms[0].coeff[0][0]"),
    (lambda cfg: cfg["boundary"].update(integral_terms=[
        {"order": 0, "density": [["0"], ["sin(t/eps)"]]}]),
     "boundary.integral_terms[0].density[1][0]"),
    (_set("target", ["0", "1/eps"]), "target[1]"),
    # a list key takes a JSON array only: a string is not split into
    # characters, nor an object read as its keys
    (_set("target", "01"), "target: expected a JSON array, got str"),
    (_set("rhs", "t"), "rhs: expected a JSON array, got str"),
    (_set("rhs", "exp(t)"), "rhs: expected a JSON array, got str"),
    (_set("rhs_at_zero", "t"), "rhs_at_zero: expected a JSON array, got str"),
    (_set("coeffs", "ab"), "coeffs: expected a JSON array, got str"),
    (_set("coeffs_at_zero", {"a": 1}),
     "coeffs_at_zero: expected a JSON array, got dict"),
    (_set("interval", "01"), "interval: expected a JSON array, got str"),
    (lambda cfg: cfg["boundary"].update(point_terms="ab"),
     "boundary.point_terms: expected a JSON array, got str"),
    (lambda cfg: cfg["boundary"].update(integral_terms="ab"),
     "boundary.integral_terms: expected a JSON array, got str"),
    # a key the config does not know is an error, not dropped
    (lambda cfg: cfg.update(coeffs_at_zer0=cfg["coeffs"]),
     "coeffs_at_zer0: unknown key"),
    (lambda cfg: cfg["boundary"].update(
        point_term=cfg["boundary"]["point_terms"]),
     "boundary.point_term: unknown key"),
    (_point_term(0, ordr=0), "boundary.point_terms[0].ordr: unknown key"),
    # a blank expression is named as such, not as an unexpected token ''
    (_set("rhs", [""]), "rhs[0]: empty expression (at position 0)"),
    (_set("target", ["0", " \t"]), "target[1]: empty expression"),
], ids=["r", "r-fraction", "r-zero", "m-zero", "m-bool", "n-fraction", "n-negative",
        "eps0-zero", "eps0-negative", "order-fraction", "order-bool",
        "point-outside", "boundary-no-term", "top-level-list", "eps0",
        "alpha", "interval-names", "interval-number", "coeffs",
        "rhs", "target", "boundary-list", "boundary-string",
        "point_terms-number", "point_terms-numbers", "order-missing",
        "point-name", "coeffs_at_zero-short", "constant-division",
        "constant-negative-power", "coeffs-long-row", "coeffs-extra-row",
        "coeffs-no-row", "coeffs-short-row", "rhs-long", "rhs-short",
        "target-long", "target-short", "rhs-count", "target-count",
        "coeff-extra-row", "coeff-short", "coeff-wide", "alpha-outside",
        "coeffs-number", "target-number", "order-above-n-plus-r",
        "coeff-no-value", "density-no-value", "target-no-value",
        "target-string", "rhs-string", "rhs-string-expression",
        "rhs_at_zero-string", "coeffs-string", "coeffs_at_zero-object",
        "interval-string", "point_terms-string", "integral_terms-string",
        "unknown-top-level-key", "unknown-boundary-key",
        "unknown-point-term-key", "rhs-empty", "target-blank"])
def test_malformed_config_cites_key_path(mutate, path, tmp_path, capsys):
    cfg = json.loads(json.dumps(_gallery_config("F1_smooth_perturb")))
    replaced = mutate(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(replaced if path == FILE else cfg))
    assert run(["solve", "--config", str(bad),
                "--out", str(tmp_path / "out")]) == 1
    # path is the key path, or the key path, ": " and the message
    key, _, message = path.partition(": ")
    cited = str(bad) if key == FILE else key
    assert capsys.readouterr().err.startswith(f"error: {cited}: {message}")


def test_invalid_json_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert run(["solve", "--config", str(bad)]) == 1


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_cites_path(kind, tmp_path, capsys):
    path = tmp_path / "cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    assert run(["solve", "--config", str(path),
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


def test_usage_error_exit_one():
    assert run(["solve"]) == 1          # missing --config/--gallery
    assert run(["frobnicate"]) == 1     # unknown subcommand
    # solve samples no norm: --samples belongs to sweep and verify only
    assert run(["solve", "--gallery", "F1_smooth_perturb",
                "--samples", "256"]) == 1


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sweep_empty_count_exit_one(count, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["sweep", "--gallery", "F1_smooth_perturb", "--count", count,
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: argument --count: must be >= 1, got {count}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, rule", [
    ("--factor", "0", "must lie in (0, 1)"),
    ("--factor", "1", "must lie in (0, 1)"),
    ("--factor", "1.5", "must lie in (0, 1)"),
    ("--factor", "-0.5", "must lie in (0, 1)"),
    ("--eps0", "0", "must be > 0"),
    ("--eps0", "-1", "must be > 0")])
def test_sweep_degenerate_geometric_sequence_exit_one(flag, value, rule,
                                                      tmp_path, capsys):
    # rejected before the family is loaded: a missing config is not read
    out = tmp_path / "out"
    for source in (["--gallery", "F1_smooth_perturb"],
                   ["--config", str(tmp_path / "missing.json")]):
        assert run(["sweep", *source, flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: argument {flag}: {rule}, got {float(value)}\n")
        assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "0"])
def test_verify_malformed_zero_tol_exit_one(value, tmp_path, capsys):
    # a flag value that is no tolerance is a usage error, not a verdict;
    # rejected before the family is loaded
    out = tmp_path / "out"
    for source in (["--gallery", "F1_smooth_perturb"],
                   ["--config", str(tmp_path / "missing.json")]):
        assert run(["verify", *source, "--zero-tol", value,
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: argument --zero-tol: must be finite "
                                f"and > 0, got {float(value)}\n")
        assert not out.exists()


def test_sweep_underflowing_geometric_sequence_exit_one(tmp_path, capsys):
    # eps0 * factor^2 = 1e-600 is 0.0 in double precision
    out = tmp_path / "out"
    assert run(["sweep", "--gallery", "F1_smooth_perturb", "--factor",
                "1e-300", "--count", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: argument --factor: eps0 * factor^k "
                            "underflows to 0 at k = 2, got 1e-300\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, eps", [
    (["--eps0", "4"], "--eps0", 2.0),
    (["--eps", "1.5"], "--eps", 1.5),
    (["--eps", "0.5", "--eps", "-0.25"], "--eps", -0.25)])
def test_sweep_eps_outside_family_range_names_its_flag(argv, flag, eps,
                                                       tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["sweep", "--gallery", "F1_smooth_perturb", *argv,
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: argument {flag}: eps={eps} outside [0, 1.0)\n")
    assert not out.exists()


def test_sweep_artifacts(tmp_path):
    out = tmp_path / "out"
    code = run(["sweep", "--gallery", "F1_smooth_perturb",
                "--count", "20", "--degree", "24", "--samples", "256",
                "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 21  # header + 20 rows
    plot = (out / "sweep_plot.csv").read_text().splitlines()
    assert plot[0] == "eps,error,discrepancy,ratio"
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["errors_tend_to_zero"]
    assert summary["kappa_hat_high"] / summary["kappa_hat_low"] <= 1e2


def test_sweep_single_eps_zero_degenerate(tmp_path):
    out = tmp_path / "out"
    code = run(["sweep", "--gallery", "F1_smooth_perturb",
                "--eps", "0", "--degree", "16", "--samples", "256",
                "--out", str(out)])
    assert code == 0
    lines = (out / "sweep_plot.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",")  # ratio column blank


def test_sweep_byte_identical(tmp_path):
    args = ["sweep", "--gallery", "F2_boundary_perturb", "--count", "6",
            "--degree", "16", "--samples", "256"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(d1)]) == 0
    assert run(args + ["--out", str(d2)]) == 0
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
    assert (d1 / "sweep_summary.json").read_bytes() == \
        (d2 / "sweep_summary.json").read_bytes()


def test_sweep_identical_with_cold_and_warm_sample_grids(tmp_path):
    args = ["sweep", "--gallery", "F6_holder_rough", "--count", "4"]
    _sample_grid.cache_clear()
    assert run(args + ["--out", str(tmp_path / "cold")]) == 0
    hits = _sample_grid.cache_info().hits
    assert run(args + ["--out", str(tmp_path / "warm")]) == 0
    assert _sample_grid.cache_info().hits > hits
    for name in ("sweep.csv", "sweep_plot.csv", "sweep_summary.json"):
        assert (tmp_path / "cold" / name).read_bytes() == \
            (tmp_path / "warm" / name).read_bytes()


def test_verify_all_builds_each_sample_grid_once(tmp_path):
    # all families share the interval [0, 1], the degree N = 24 and
    # M = 512; norms see degrees N and 2N (products), each with the one
    # grid that the sup parts and the seminorm share
    _sample_grid.cache_clear()
    assert run(["verify", "--all", "--out", str(tmp_path)]) == 0
    info = _sample_grid.cache_info()
    assert info.misses == info.currsize <= 2 < info.hits


def test_verify_single_family_agreement(tmp_path):
    out = tmp_path / "v"
    code = run(["verify", "--gallery", "F4_limitI_violated",
                "--degree", "24", "--samples", "256", "--out", str(out)])
    assert code == 0
    lines = (out / "verify.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("F4_limitI_violated,")


def test_verify_config_matches_gallery(tmp_path):
    cfg = tmp_path / "f1.json"
    cfg.write_text(json.dumps(_gallery_config("F1_smooth_perturb")))
    common = ["--degree", "24", "--samples", "256"]
    rows = []
    for source, out in (["--config", str(cfg)], "c"), \
            (["--gallery", "F1_smooth_perturb"], "g"):
        assert run(["verify"] + source + common
                   + ["--out", str(tmp_path / out)]) == 0
        with open(tmp_path / out / "verify.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        rows.append(row)
    assert rows[0].pop("family") == str(cfg)
    assert rows[1].pop("family") == "F1_smooth_perturb"
    assert rows[0] == rows[1]


def test_rhs_at_zero_is_the_rhs_at_eps_zero_only(tmp_path, capsys):
    # f = exp(t) + sin(t/eps) has no eps -> 0 limit: without rhs_at_zero
    # the eps = 0 slice divides by zero; with it eps = 0 solves F1's
    # problem, and any eps > 0 still solves the config's own f
    f1 = _gallery_config("F1_smooth_perturb")
    rough = dict(f1, rhs=["exp(t)+sin(t/eps)"])
    split = dict(rough, rhs_at_zero=["exp(t)"])

    def solve(cfg, eps, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        code = run(["solve", "--config", str(path), "--eps", eps,
                    "--out", str(out)])
        return code, code == 0 and (out / "solution.csv").read_bytes()

    assert solve(rough, "0", "rough0") == (1, False)
    err = capsys.readouterr().err
    assert "rhs[0]: division by zero" in err and "rhs_at_zero" in err
    assert solve(split, "0", "split0") == solve(f1, "0", "f1_0")
    split_quarter = solve(split, "0.25", "split1")
    assert split_quarter == solve(rough, "0.25", "rough1")
    assert split_quarter != solve(f1, "0.25", "f1_1")


@pytest.mark.parametrize("command", [["solve", "--eps", "0"],
                                     ["sweep", "--count", "2"], ["verify"]])
def test_an_entry_with_no_value_at_eps_zero_cites_its_key(command, tmp_path,
                                                            capsys):
    # sin(t/eps) has no value at eps = 0: every command names the entry and
    # the _at_zero key that would give its limit, or the _at_zero entry
    # itself when that is what fails
    f1 = _gallery_config("F1_smooth_perturb")
    hint = "; if it has no eps -> 0 limit, give "
    for cfg, want in (
            (dict(f1, coeffs=[[["1+sin(t/eps)"]], [["0"]]]),
             "coeffs[0][0][0]: division by zero at eps=0.0" + hint
             + "coeffs_at_zero"),
            (dict(f1, rhs=["sin(t/eps)"]),
             "rhs[0]: division by zero at eps=0.0" + hint + "rhs_at_zero"),
            (dict(f1, coeffs_at_zero=[[["1/eps"]], [["0"]]]),
             "coeffs_at_zero[0][0][0]: division by zero at eps=0.0"),
            (dict(f1, boundary={"point_terms": [
                dict(f1["boundary"]["point_terms"][0],
                     coeff=[["1+sin(1/eps)"], ["0"]]),
                f1["boundary"]["point_terms"][1]]}),
             "boundary.point_terms[0].coeff[0][0]: division by zero at "
             "eps=0.0")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(command + ["--config", str(path),
                              "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.parametrize("command, family, degree, samples", [
    ("sweep", "F1_smooth_perturb", 600, 512),
    ("sweep", "F1_smooth_perturb", 8, 16),
    ("sweep", "F1_smooth_perturb", 8, 63),
    ("verify", "F1_smooth_perturb", 24, 48),
    ("sweep", "F6_holder_rough", 256, 256),
    ("verify", "F6_holder_rough", 24, 63)])
def test_too_few_samples_is_a_usage_error_before_any_solve(
        command, family, degree, samples, tmp_path, capsys, monkeypatch):
    # --samples must be >= 64 and above --degree
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the usage check")

    monkeypatch.setattr("hbvp.analysis.solve_bvp_direct", no_solve)
    argv = [command, "--gallery", family, "--degree", str(degree),
            "--out", str(tmp_path)]
    assert run(argv + (["--samples", str(samples)] if samples else [])) == 1
    captured = capsys.readouterr()
    assert "argument --samples: must be >= " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--gallery", "F6_holder_rough", "--degree", "256",
     "--samples", "512", "--count", "2"],
    ["verify", "--gallery", "F6_holder_rough", "--degree", "256"],
    ["sweep", "--gallery", "F1_smooth_perturb", "--degree", "100",
     "--samples", "201", "--count", "2"],
    # F1's coefficients vary with eps: its norms sample each product of
    # degree min(2N, 512) at that degree, whatever M above N is given
    ["sweep", "--gallery", "F1_smooth_perturb", "--degree", "256",
     "--samples", "512", "--count", "2"],
    ["verify", "--gallery", "F1_smooth_perturb", "--degree", "256"]])
def test_the_least_samples_the_norms_take_are_accepted(argv, tmp_path):
    assert run(argv + ["--out", str(tmp_path)]) in (0, 3)


def test_main_calls_share_the_parser_but_not_eps_lists(monkeypatch,
                                                       tmp_path):
    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args.eps))
    base = ["sweep", "--gallery", "F1_smooth_perturb", "--out", str(tmp_path)]
    run(base + ["--eps", "0.5", "--eps", "0.25"])
    run(base + ["--eps", "0.125"])
    run(base)
    assert seen == [[0.5, 0.25], [0.125], None]
    assert cli.build_parser() is cli.build_parser()


def test_verify_absurd_tolerance_exit_three():
    code = run(["verify", "--gallery", "F1_smooth_perturb",
                "--degree", "24", "--samples", "256",
                "--zero-tol", "1e-30"])
    assert code == 3


def test_sweep_records_a_rejected_solve(tmp_path, monkeypatch):
    def reject_quarter(instance):
        if instance.eps == 0.25:
            raise SolveRejected(1.0, 0.5, instance.N)
        return solve_bvp_direct(instance)

    monkeypatch.setattr("hbvp.analysis.solve_bvp_direct", reject_quarter)
    report = two_sided_sweep(gallery("F1_smooth_perturb"),
                             [0.5, 0.25, 0.125], N=16, M=256)
    rec = next(r for r in report.records if r.eps == 0.25)
    assert rec.failure == "SolveRejected" and rec.error is None
    assert report.summary()["failures"] == [0.25]
    assert report.summary()["errors_tend_to_zero"] is False

    out = tmp_path / "out"
    assert run(["sweep", "--gallery", "F1_smooth_perturb", "--eps", "0.5",
                "--eps", "0.25", "--degree", "16", "--samples", "256",
                "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    (row,) = [r for r in rows if r.startswith("0.25,")]
    assert row.endswith(",SolveRejected")
