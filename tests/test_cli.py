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
              "--degree", "16", "--samples", "256"]
    assert run(["solve"] + common + ["--out", str(tmp_path / "s")]) == 0
    assert run(["sweep"] + common + ["--out", str(tmp_path / "w")]) == 0
    summary = json.loads((tmp_path / "s" / "solve_summary.json").read_text())
    with open(tmp_path / "w" / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["cond0_margin"]) == summary["cond0_margin"]


def test_solve_f3_exit_two(capsys):
    code = run(["solve", "--gallery", "F3_cond0_violated"])
    assert code == 2
    assert "Condition (0)" in capsys.readouterr().err


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


@pytest.mark.parametrize("mutate, path", [
    (_set("r", "two"), "r"),
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
    (lambda cfg: cfg["rhs"].__setitem__(0, "0^-1"), "rhs[0][0]"),
], ids=["r", "eps0", "alpha", "interval-names", "interval-number", "coeffs",
        "rhs", "target", "boundary-list", "boundary-string",
        "point_terms-number", "point_terms-numbers", "order-missing",
        "point-name", "coeffs_at_zero-short", "constant-division",
        "constant-negative-power"])
def test_malformed_config_cites_key_path(mutate, path, tmp_path, capsys):
    cfg = json.loads(json.dumps(_gallery_config("F1_smooth_perturb")))
    mutate(cfg)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert run(["solve", "--config", str(bad),
                "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


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
    # M = 512; norms see degrees N and 2N (products), each with one
    # sup-norm grid and one seminorm grid
    _sample_grid.cache_clear()
    assert run(["verify", "--all", "--out", str(tmp_path)]) == 0
    info = _sample_grid.cache_info()
    assert info.misses == info.currsize <= 4 < info.hits


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
