import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import segpart
from segpart import cli, partition
from segpart.eigensolve import cap_eigenvalue, first_dirichlet_eig
from segpart.grid import Mask, ScalarField, build_domain, gradient_magnitude
from segpart.monotonicity import acf_psi_functional, exterior_ball_nodes, profile_for_lambda
from segpart.partition import SweepReport


def write_config(tmp_path, name, cfg):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def modules_loaded(body, modules):
    """Which of ``modules`` a fresh interpreter holds after running ``body``.

    A subprocess, since this test module's neighbours import scipy's
    submodules themselves.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(segpart.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    check = f"import sys\nprint([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", f"{body}\n{check}"], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    return out.splitlines()[-1]


def eig_config(tmp_path, outname="out", **overrides):
    cfg = {
        "schema": 1,
        "domain": {"shape": "square", "params": [1.0]},
        "grid": {"n": 64},
        "output": {"dir": os.path.join(tmp_path, outname)},
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = eig_config(tmp_path, stray=1)
        assert cli.main(["eig", "--config", write_config(tmp_path, "c.json", cfg)]) == 2

    def test_unknown_section_key(self, tmp_path):
        cfg = eig_config(tmp_path)
        cfg["grid"] = {"n": 64, "fancy": True}
        assert cli.main(["eig", "--config", write_config(tmp_path, "c.json", cfg)]) == 2

    def test_wrong_schema(self, tmp_path):
        cfg = eig_config(tmp_path)
        cfg["schema"] = 2
        assert cli.main(["eig", "--config", write_config(tmp_path, "c.json", cfg)]) == 2

    @pytest.mark.parametrize("schema", [True, 1.0], ids=["bool", "float"])
    def test_schema_equal_to_one_but_not_the_integer_rejected(self, tmp_path, capsys, schema):
        cfg = eig_config(tmp_path, schema=schema)
        assert cli.main(["eig", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
        assert "config error: schema must be the integer 1" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = os.path.join(tmp_path, "bad.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cli.main(["eig", "--config", path]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["eig", "--config", os.path.join(tmp_path, "nope.json")]) == 2

    def test_unknown_check_name(self, tmp_path):
        cfg = {
            "schema": 1,
            "checks": ["nonsense"],
            "output": {"dir": os.path.join(tmp_path, "o")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 2

    def test_verify_rejects_a_grid_section(self, tmp_path, capsys):
        # verify reads its grid size from check_params.n; a grid section used
        # to be accepted and ignored, so the checks ran at the default n = 128
        cfg = {
            "schema": 1,
            "checks": ["gradient"],
            "grid": {"n": 16},
            "output": {"dir": os.path.join(tmp_path, "o")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 2
        assert "config error: config: unknown keys ['grid']" in capsys.readouterr().err
        assert not os.path.exists(cfg["output"]["dir"])

    @pytest.mark.parametrize("command, section, key, value", [
        ("partition", "problem", "r_values", [0.25, 0.0]),
        ("sweep", "problem", "r", 0.3),
        ("eig", "tolerances", "outer", 5.0),
    ], ids=["partition-r_values", "sweep-r", "eig-outer"])
    def test_a_key_the_command_does_not_read_exit_2(self, tmp_path, capsys, command, section,
                                                    key, value):
        # each used to exit 0, the key ignored: a partition solves at
        # problem.r, a sweep at its r_values, and eig has no outer loop
        cfg = eig_config(tmp_path, grid={"n": 16})
        if command != "eig":
            cfg["domain"] = {"shape": "rectangle", "params": [2.0, 1.0]}
            cfg["problem"] = {"k": 2, "r": 0.0} if command == "partition" else {
                "k": 2, "r_values": [0.25, 0.0]}
        cfg.setdefault(section, {})[key] = value
        assert cli.main([command, "--config", write_config(tmp_path, "c.json", cfg)]) == 2
        assert f"config error: {section}: unknown keys ['{key}']" in capsys.readouterr().err
        assert not os.path.exists(cfg["output"]["dir"])

    def test_repeated_check_name(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "checks": ["gamma", "cap", "gamma"],
            "output": {"dir": os.path.join(tmp_path, "o")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 2
        assert "config error: checks must not repeat" in capsys.readouterr().err
        assert not os.path.exists(cfg["output"]["dir"])

    @pytest.mark.parametrize(
        "params",
        [
            {"N": 1},
            {"n": 1},
            {"n": "x"},
            {"samples": 100},
            {"samples": 512.0},
            {"theta_nodes": 8},
            {"seed": -1},
            {"seed": True},
        ],
        ids=["N", "n", "n-str", "samples", "samples-float", "theta_nodes", "seed",
             "seed-bool"],
    )
    def test_bad_check_params_exit_2(self, tmp_path, capsys, params):
        cfg = {
            "schema": 1,
            "checks": ["gamma"],
            "check_params": params,
            "output": {"dir": os.path.join(tmp_path, "o")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 2
        key = next(iter(params))
        assert f"config error: check_params.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("grid", "n", 1),
            ("grid", "n", 16.0),
            ("tolerances", "eig", float("nan")),
            ("tolerances", "eig", float("inf")),
            ("tolerances", "eig", [1e-8]),
            ("tolerances", "eig", 0.0),
            ("tolerances", "eig", True),
            ("tolerances", "outer", float("nan")),
            ("tolerances", "outer", -1e-6),
            ("problem", "k", [2]),
            ("problem", "k", 2.7),
            ("problem", "k", 0),
            ("problem", "k", True),
            ("problem", "seed", True),
            ("problem", "seed", -1),
            ("problem", "seed", 1.5),
            ("problem", "r", -0.1),
            ("problem", "r", float("nan")),
            ("problem", "r", "0.1"),
            ("problem", "r", False),
            ("problem", "r_values", [0.1, float("nan"), 0.0]),
            ("problem", "r_values", [0.1, -1.0, 0.0]),
            ("problem", "r_values", [True, 0.0]),
            ("problem", "r_values", "0.1"),
            ("problem", "r_values", [0.1, 0.1, 0.0]),
            ("problem", "r_values", [0.1, 0, 0.0]),
            ("domain", "params", [True, 1.0]),
            ("domain", "params", ["2", 1.0]),
            ("domain", "params", [2.0, 0.0]),
            ("domain", "params", [2.0, float("nan")]),
            ("domain", "params", 2.0),
            ("domain", "shape", ["disk"]),
            ("output", "dir", 5),
            ("output", "dir", ["a"]),
            ("output", "dir", ""),
            # a directory under the config file, a regular file
            ("output", "dir", lambda tmp_path: os.path.join(tmp_path, "s.json", "o")),
        ],
        ids=["n-one", "n-float", "eig-nan", "eig-inf", "eig-list", "eig-zero", "eig-bool", "outer-nan",
             "outer-negative", "k-list", "k-float", "k-zero", "k-bool", "seed-bool",
             "seed-negative", "seed-float", "r-negative", "r-nan", "r-str", "r-bool",
             "r_values-nan", "r_values-negative", "r_values-bool", "r_values-str",
             "r_values-repeated", "r_values-repeated-zero", "params-bool", "params-str",
             "params-zero", "params-nan", "params-scalar", "shape-list", "dir-int",
             "dir-list", "dir-empty", "dir-under-file"],
    )
    def test_bad_problem_and_tolerance_values_exit_2(self, tmp_path, capsys, section,
                                                     key, value):
        # problem.r on a partition config: a sweep does not read it, so there
        # it is an unknown key whatever its value
        command = "partition" if key == "r" else "sweep"
        cfg = {
            "schema": 1,
            "domain": {"shape": "rectangle", "params": [2.0, 1.0]},
            "grid": {"n": 16},
            "problem": {"k": 2, "seed": 5},
            "tolerances": {"eig": 1e-7, "outer": 1e-6},
            "output": {"dir": os.path.join(tmp_path, "o")},
        }
        if command == "sweep":
            cfg["problem"]["r_values"] = [0.25, 0.0]
        cfg[section][key] = value(tmp_path) if callable(value) else value
        assert cli.main([command, "--config", write_config(tmp_path, "s.json", cfg)]) == 2
        assert f"config error: {section}.{key}" in capsys.readouterr().err


class TestEig:
    def test_square_prints_lambda(self, tmp_path, capsys):
        cfg = eig_config(tmp_path)
        code = cli.main(["eig", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda1=19.7" in out
        outdir = cfg["output"]["dir"]
        assert os.path.exists(os.path.join(outdir, "eigenfunction.spf1"))
        assert os.path.exists(os.path.join(outdir, "eigenresult.json"))
        assert os.path.exists(os.path.join(outdir, "mask.pgm"))

    def test_empty_domain_exit_2(self, tmp_path, capsys):
        cfg = eig_config(
            tmp_path,
            domain={"shape": "disk_minus_ball", "params": [1.0, 0.9999999]},
            grid={"n": 2},
        )
        code = cli.main(["eig", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 2
        assert "empty domain" in capsys.readouterr().err

    def test_residual_and_solves_reach_the_log_only(self, tmp_path, capsys):
        cfg = eig_config(tmp_path)
        assert cli.main(["eig", "--config", write_config(tmp_path, "c.json", cfg), "-v"]) == 0
        outdir = cfg["output"]["dir"]
        sidecar = json.load(open(os.path.join(outdir, "eigenresult.json")))
        line = f"residual={sidecar['residual']!r} solves={sidecar['iterations']}"
        assert line in capsys.readouterr().err
        assert line in open(os.path.join(outdir, "run.log")).read()
        for name in os.listdir(outdir):
            if name != "run.log":
                assert b"solves" not in open(os.path.join(outdir, name), "rb").read()

    def test_loads_only_what_it_calls(self, tmp_path):
        # eig needs none of the four
        deferred = ("scipy.ndimage", "scipy.special", "scipy.optimize", "scipy.integrate")
        path = write_config(tmp_path, "c.json", eig_config(tmp_path, grid={"n": 32}))
        for body in (
            "import segpart, segpart.cli",
            f"from segpart import cli\nassert cli.main(['eig', '--config', {path!r}]) == 0",
        ):
            assert modules_loaded(body, deferred) == "[]"

    def test_output_dir_created(self, tmp_path):
        cfg = eig_config(tmp_path, outname="deep/nested/dir")
        code = cli.main(["eig", "--config", write_config(tmp_path, "c.json", cfg)])
        assert code == 0
        assert os.path.isdir(cfg["output"]["dir"])


class TestPartition:
    def partition_config(self, tmp_path, outname="p", **problem):
        base = {"k": 2, "r": 0.0, "seed": 5}
        base.update(problem)
        return {
            "schema": 1,
            "domain": {"shape": "rectangle", "params": [2.0, 1.0]},
            "grid": {"n": 48},
            "problem": base,
            "tolerances": {"eig": 1e-7, "outer": 1e-6},
            "output": {"dir": os.path.join(tmp_path, outname)},
        }

    def test_energy_below_competitor_bound(self, tmp_path):
        cfg = self.partition_config(tmp_path)
        code = cli.main(["partition", "--config", write_config(tmp_path, "p.json", cfg)])
        assert code == 0
        manifest = json.load(open(os.path.join(cfg["output"]["dir"], "manifest.json")))
        assert manifest["c"] <= 39.9
        assert len(manifest["lambdas"]) == 2
        outdir = cfg["output"]["dir"]
        assert os.path.exists(os.path.join(outdir, "component_1.spf1"))
        assert os.path.exists(os.path.join(outdir, "support_2.pgm"))

    def test_infeasible_r_exit_3(self, tmp_path, capsys):
        cfg = self.partition_config(tmp_path, r=1.9)
        code = cli.main(["partition", "--config", write_config(tmp_path, "p.json", cfg)])
        assert code == 3
        assert "infeasible r" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = self.partition_config(tmp_path, outname="run1")
        cfg2 = self.partition_config(tmp_path, outname="run2")
        assert cli.main(["partition", "--config", write_config(tmp_path, "p1.json", cfg1)]) == 0
        assert cli.main(["partition", "--config", write_config(tmp_path, "p2.json", cfg2)]) == 0
        for name in ("manifest.json", "component_1.spf1", "support_1.pgm"):
            a = open(os.path.join(cfg1["output"]["dir"], name), "rb").read()
            b = open(os.path.join(cfg2["output"]["dir"], name), "rb").read()
            assert a == b


def solve_every_time(allowed, prob, memo):
    """A block solve that never consults the run's memo."""
    res = partition.first_dirichlet_eig(
        prob.domain, Mask(prob.domain, allowed), tol=prob.tol_eig
    )
    return res, partition._truncate(res.field, prob.tau)


# what each command's run at test size must not load: no command needs a
# root finder (scipy.optimize, which brings scipy.spatial along), verify
# integrates nothing, and no solve at n = 32 is wide enough for SuperLU
NOT_LOADED = {
    "eig": ("scipy.sparse.linalg", "scipy.optimize"),
    "partition": ("scipy.sparse.linalg", "scipy.optimize"),
    "sweep": ("scipy.sparse.linalg", "scipy.optimize"),
    "verify": ("scipy.optimize", "scipy.integrate", "scipy.spatial"),
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_each_command_loads_only_what_it_calls(tmp_path, command):
    outdir = os.path.join(tmp_path, "out")
    problem = {"k": 2, "seed": 5}
    problem.update({"r_values": [0.125, 0.0625, 0.0]} if command == "sweep" else {"r": 0.125})
    cfg = {
        "eig": eig_config(tmp_path, grid={"n": 32}),
        "partition": {
            "schema": 1,
            "domain": {"shape": "rectangle", "params": [2.0, 1.0]},
            "grid": {"n": 32},
            "problem": problem,
            "output": {"dir": outdir},
        },
        "verify": {
            "schema": 1,
            "checks": list(cli.KNOWN_CHECKS),
            "check_params": {"n": 48, "seed": 11},
            "output": {"dir": outdir},
        },
    }
    cfg["sweep"] = cfg["partition"]
    path = write_config(tmp_path, "c.json", cfg[command])
    body = f"from segpart import cli\nassert cli.main([{command!r}, '--config', {path!r}]) == 0"
    assert modules_loaded(body, NOT_LOADED[command]) == "[]"


@pytest.mark.parametrize("command", ["partition", "sweep"])
def test_solve_counts_reach_the_log_only(tmp_path, monkeypatch, capsys, command):
    problem = {"k": 2, "seed": 5}
    problem.update({"r_values": [0.25, 0.125, 0.0]} if command == "sweep" else {"r": 0.125})
    outdirs = {}
    for run in ("memo", "plain"):
        if run == "plain":
            monkeypatch.setattr(partition, "_solve_component", solve_every_time)
        outdirs[run] = os.path.join(tmp_path, run)
        cfg = {
            "schema": 1,
            "domain": {"shape": "rectangle", "params": [2.0, 1.0]},
            "grid": {"n": 32},
            "problem": problem,
            "tolerances": {"eig": 1e-7, "outer": 1e-6},
            "output": {"dir": outdirs[run]},
        }
        path = write_config(tmp_path, f"{run}.json", cfg)
        assert cli.main([command, "--config", path, "-v"]) == 0
    err = capsys.readouterr().err
    log = open(os.path.join(outdirs["memo"], "run.log")).read()
    for text in (err, log):
        assert "eig_solves=" in text and "eig_memo_hits=" in text
    # every artifact but the log is byte-identical with and without the memo,
    # and none carries the counts
    names = sorted(os.listdir(outdirs["memo"]))
    assert names == sorted(os.listdir(outdirs["plain"]))
    names.remove("run.log")
    assert names
    for name in names:
        a = open(os.path.join(outdirs["memo"], name), "rb").read()
        assert a == open(os.path.join(outdirs["plain"], name), "rb").read()
        assert b"eig_" not in a and b"memo" not in a


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        cfg = {
            "schema": 1,
            "domain": {"shape": "rectangle", "params": [2.0, 1.0]},
            "grid": {"n": 32},
            "problem": {"k": 2, "r_values": [0.25, 0.125, 0.0], "seed": 5},
            "tolerances": {"eig": 1e-7, "outer": 1e-6},
            "output": {"dir": os.path.join(tmp_path, "sw")},
        }
        code = cli.main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)])
        assert code == 0
        csv_lines = open(os.path.join(cfg["output"]["dir"], "sweep.csv")).read().splitlines()
        assert csv_lines[0] == "r,c_r,lambda_1,lambda_2,lip_max,linf_max,holder_05,dist_to_u0"
        cs = [float(line.split(",")[1]) for line in csv_lines[1:]]
        assert cs == sorted(cs)
        summary = json.load(open(os.path.join(cfg["output"]["dir"], "sweep_summary.json")))
        assert summary["c_slope_vs_r"] > 0
        assert summary["failed_r"] == []

    @pytest.mark.parametrize("n_failed, code", [(1, 0), (2, 3)])
    def test_exit_3_below_80_percent_success(self, tmp_path, monkeypatch, n_failed, code):
        r_values = [0.25, 0.125, 0.0625, 0.03125, 0.0]

        def fake_sweep(prob, rs):
            rows = [
                {"r": r, "error": "infeasible r"} if i < n_failed else
                {"r": r, "c": 40.0 + r, "lambdas": [20.0, 20.0 + r], "lip_max": 1.0,
                 "linf_max": 1.0, "holder_05": 1.0, "dist_to_u0": [0.0, 0.0],
                 "error": None}
                for i, r in enumerate(rs)
            ]
            return SweepReport(rows, {"k": 2, "eig_solves": 0, "eig_memo_hits": 0}, {})

        monkeypatch.setattr(cli, "run_sweep", fake_sweep)
        cfg = {
            "schema": 1,
            "domain": {"shape": "rectangle", "params": [2.0, 1.0]},
            "grid": {"n": 16},
            "problem": {"k": 2, "r_values": r_values, "seed": 5},
            "output": {"dir": os.path.join(tmp_path, "sw3")},
        }
        assert cli.main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)]) == code
        summary = json.load(open(os.path.join(cfg["output"]["dir"], "sweep_summary.json")))
        assert summary["failed_r"] == r_values[:n_failed]

    def test_missing_r_values_rejected(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "domain": {"shape": "rectangle", "params": [2.0, 1.0]},
            "grid": {"n": 16},
            "problem": {"k": 2, "seed": 5},
            "output": {"dir": os.path.join(tmp_path, "sw2")},
        }
        assert cli.main(["sweep", "--config", write_config(tmp_path, "s.json", cfg)]) == 2
        assert "problem.r_values must be a nonempty list" in capsys.readouterr().err
        assert not os.path.exists(cfg["output"]["dir"])


# each check's CSV header and the fields of its verify.json entry
CHECK_OUTPUTS = {
    "cap": ("r,lambda", {"lambda0_error", "slope_at_0"}),
    "psi": ("r,psi", {"fitted_C", "doubling_drift"}),
    "gamma": ("t,gamma", {"gamma_at_Nm1", "dgamma_at_Nm1"}),
    "mean_value": ("r,average", {"max_violation"}),
    "acf": ("r,value", {"max_violation", "C"}),
    "cjk": ("r,value", {"max_min_ratio"}),
    "poincare": ("r,ratio", {"max_ratio"}),
    "gradient": ("shape,ratio", {"ratio_disk", "ratio_square"}),
}


def per_field_poincare_rows(p: dict) -> list:
    """Reference for the poincare check's rows: one validated field and one
    full-lattice quotient (coordinates, |x|, ball, ring and gradient all
    rebuilt) per draw of six coefficients."""
    dom = build_domain("disk_minus_ball", p["n"], 2.0, 1.0)
    rng = np.random.default_rng(p["seed"])
    x, y = dom.coords()
    excluded = exterior_ball_nodes(dom)
    h = dom.h
    rows = []
    for r in (0.25, 0.5, 1.0):
        for _ in range(40):
            coef = rng.standard_normal(6)
            vals = (
                coef[0]
                + coef[1] * x + coef[2] * y
                + coef[3] * np.sin(2 * x) + coef[4] * np.cos(2 * y)
                + coef[5] * x * y
            )
            f = ScalarField.from_values(dom, vals)
            rho = np.hypot(x, y)
            ball = rho <= r
            assert not np.any(f.values[ball & excluded] != 0.0)
            assert np.any(f.values[ball] != 0.0)
            ring = ball & (rho > r - h)
            g = gradient_magnitude(f)
            boundary = float((f.values[ring] ** 2).sum()) * h
            interior = float((f.values[ball] ** 2).sum()) * h * h
            grad = float((g.values[ball] ** 2).sum()) * h * h
            q = math.inf if grad == 0.0 else (boundary / r + interior / (r * r)) / grad
            rows.append([r, q])
    return rows


class TestVerify:
    @pytest.mark.parametrize("name", cli.KNOWN_CHECKS)
    def test_check_writes_its_csv_and_summary(self, tmp_path, capsys, name):
        header, fields = CHECK_OUTPUTS[name]
        outdir = os.path.join(tmp_path, "v")
        cfg = {
            "schema": 1,
            "checks": [name],
            "check_params": {"n": 32, "theta_nodes": 64, "samples": 512},
            "output": {"dir": outdir},
        }
        code = cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)])
        assert sorted(os.listdir(outdir)) == sorted([f"{name}.csv", "run.log", "verify.json"])
        lines = open(os.path.join(outdir, f"{name}.csv")).read().splitlines()
        assert lines[0] == header and len(lines) > 1
        assert all(len(line.split(",")) == len(header.split(",")) for line in lines)
        (entry,) = json.load(open(os.path.join(outdir, "verify.json")))["checks"]
        assert set(entry) == {"check", "passed"} | fields
        assert entry["check"] == name and entry["passed"] is (code == 0)
        assert capsys.readouterr().out == f"{name}: {'pass' if code == 0 else 'FAIL'}\n"

    def test_gamma_and_cap_checks_pass(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "checks": ["gamma", "cap"],
            "check_params": {"N": 3},
            "output": {"dir": os.path.join(tmp_path, "v")},
        }
        code = cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "gamma: pass" in out and "cap: pass" in out
        summary = json.load(open(os.path.join(cfg["output"]["dir"], "verify.json")))
        assert summary["passed"] is True
        cap_rows = open(os.path.join(cfg["output"]["dir"], "cap.csv")).read().splitlines()
        assert cap_rows[0] == "r,lambda"
        r0 = cap_rows[1].split(",")
        assert float(r0[0]) == 0.0
        assert abs(float(r0[1]) - 2.0) < 1e-6

    def test_cap_slope_at_one_resolution(self, tmp_path):
        cfg = {
            "schema": 1,
            "checks": ["cap"],
            "check_params": {"N": 3, "theta_nodes": 16},
            "output": {"dir": os.path.join(tmp_path, "vc")},
        }
        cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)])
        summary = json.load(open(os.path.join(cfg["output"]["dir"], "verify.json")))
        slope = summary["checks"][0]["slope_at_0"]
        quotient = (
            cap_eigenvalue(3, 0.01, nodes=16).lambda1 - cap_eigenvalue(3, 0.0, nodes=16).lambda1
        ) / 0.01
        assert abs(slope - quotient) <= 1e-9
        assert abs(slope + 1.4895) <= 1e-4

    def test_cap_check_passes_at_high_dimension(self, tmp_path):
        # lambda(0)'s error at 4096 nodes is about 1.2e-8 (N - 1): above 1e-6
        # from N = 83, and far within the check's 5e-7 (N - 1) up to N = 88,
        # the largest N the cap solves there
        for dim in (60, 83, 88):
            cfg = {
                "schema": 1,
                "checks": ["cap"],
                "check_params": {"N": dim},
                "output": {"dir": os.path.join(tmp_path, f"vc{dim}")},
            }
            assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 0
            summary = json.load(open(os.path.join(cfg["output"]["dir"], "verify.json")))
            assert summary["checks"][0]["lambda0_error"] <= 1.5e-8 * (dim - 1)

    def test_cap_check_beyond_the_representable_dimension_exit_3(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "checks": ["cap"],
            "check_params": {"N": 100},
            "output": {"dir": os.path.join(tmp_path, "vc")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 3
        err = capsys.readouterr().err
        assert "runtime error: cap stiffness matrix is not positive definite" in err
        assert "dim=100, nodes=4096" in err

    @pytest.mark.parametrize("n", [40, 80])
    def test_poincare_check_passes_where_the_mask_met_the_excluded_ball(self, tmp_path, n):
        # at these n the excluded circle passes through lattice nodes up to
        # rounding; a field that is nonzero there exits 3, "constraint violated"
        cfg = {
            "schema": 1,
            "checks": ["poincare"],
            "check_params": {"n": n},
            "output": {"dir": os.path.join(tmp_path, "vp")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 0

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("n", [16, 40, 48, 80, 128])
    def test_poincare_rows_match_the_per_field_reference(self, n, seed):
        header, rows, summary = cli._check_poincare({"n": n, "seed": seed})
        want = per_field_poincare_rows({"n": n, "seed": seed})
        assert header == ["r", "ratio"]
        assert [repr(v) for row in rows for v in row] == [repr(v) for row in want for v in row]
        assert repr(summary["max_ratio"]) == repr(max(q for _, q in want))
        assert summary["passed"] is True

    @pytest.mark.parametrize("n, code", [(12, 1), (13, 0), (14, 1), (15, 0), (16, 0)])
    def test_poincare_on_a_coarse_grid_fails_without_aborting(self, tmp_path, n, code):
        # at n = 12 and 14 the r = 0.25 ball holds no mask node, so every
        # field vanishes there: that radius gets NaN rows and the check fails
        outdir = os.path.join(tmp_path, "vp")
        cfg = {
            "schema": 1,
            "checks": ["poincare", "gamma"],
            "check_params": {"n": n},
            "output": {"dir": outdir},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == code
        poincare, gamma = json.load(open(os.path.join(outdir, "verify.json")))["checks"]
        assert poincare["passed"] is (code == 0) and gamma["passed"] is True
        rows = [line.split(",") for line in open(os.path.join(outdir, "poincare.csv"))][1:]
        assert len(rows) == 120
        nan_radii = {float(r) for r, q in rows if math.isnan(float(q))}
        assert nan_radii == ({0.25} if code else set())
        assert math.isfinite(poincare["max_ratio"])

    def test_mean_value_check_passes(self, tmp_path):
        cfg = {
            "schema": 1,
            "checks": ["mean_value"],
            "check_params": {"n": 48, "seed": 101},
            "output": {"dir": os.path.join(tmp_path, "vm")},
        }
        code = cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)])
        assert code == 0

    def test_psi_check(self, tmp_path):
        cfg = {
            "schema": 1,
            "checks": ["psi"],
            "check_params": {"N": 3, "samples": 512},
            "output": {"dir": os.path.join(tmp_path, "vp")},
        }
        code = cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)])
        assert code == 0
        summary = json.load(open(os.path.join(cfg["output"]["dir"], "verify.json")))
        entry = summary["checks"][0]
        assert entry["fitted_C"] > 0
        psi_rows = open(os.path.join(cfg["output"]["dir"], "psi.csv")).read().splitlines()
        first = psi_rows[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0

    @pytest.mark.parametrize("name, n", [("acf", 32), ("cjk", 16), ("acf", 33), ("cjk", 17)])
    def test_check_fails_when_radii_collapse(self, tmp_path, capsys, name, n):
        # the smallest radius, 4h, reaches the largest: acf's 0.5 at h = 4/32,
        # cjk's 0.25 at h = 1/16, and the ball would be compared with itself;
        # at n = 33 and 17 the radii span less than h (0.485-0.5, 0.235-0.25)
        cfg = {
            "schema": 1,
            "checks": [name],
            "check_params": {"n": n, "seed": 5},
            "output": {"dir": os.path.join(tmp_path, "vr")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 1
        assert capsys.readouterr().out == f"{name}: FAIL\n"

    @pytest.mark.parametrize("name, n", [("acf", 40), ("cjk", 20)])
    def test_check_passes_when_radii_span_h_up_to_rounding(self, tmp_path, capsys, name, n):
        # 0.5 - 4 * 0.1 and 0.25 - 4 * 0.05 fall short of h in the last bit
        cfg = {
            "schema": 1,
            "checks": [name],
            "check_params": {"n": n, "seed": 5},
            "output": {"dir": os.path.join(tmp_path, "vt")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 0
        assert capsys.readouterr().out == f"{name}: pass\n"

    def test_acf_fails_where_its_ball_reaches_phis_zero(self, tmp_path, capsys):
        # at n = 17 the working ball of every radius reaches the zero of
        # phi; the check fails and the checks after it still run
        cfg = {
            "schema": 1,
            "checks": ["acf", "cjk"],
            "check_params": {"n": 17, "seed": 5},
            "output": {"dir": os.path.join(tmp_path, "vz")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 1
        assert capsys.readouterr().out == "acf: FAIL\ncjk: FAIL\n"
        outdir = cfg["output"]["dir"]
        acf, cjk = json.load(open(os.path.join(outdir, "verify.json")))["checks"]
        assert (acf["check"], cjk["check"]) == ("acf", "cjk")
        assert acf["passed"] is False and set(acf) == {"check", "passed"} | CHECK_OUTPUTS["acf"][1]
        lines = open(os.path.join(outdir, "acf.csv")).read().splitlines()
        assert lines[0] == "r,value" and len(lines) == 1 + 12

    def test_psi_check_loads_no_quadrature(self, tmp_path):
        cfg = {
            "schema": 1,
            "checks": ["psi"],
            "check_params": {"N": 3, "samples": 512},
            "output": {"dir": os.path.join(tmp_path, "vq")},
        }
        path = write_config(tmp_path, "v.json", cfg)
        body = f"from segpart import cli\nassert cli.main(['verify', '--config', {path!r}]) == 0"
        assert modules_loaded(body, ("scipy.integrate",)) == "[]"

    def test_all_checks_pass_at_n48(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "checks": list(cli.KNOWN_CHECKS),
            "check_params": {"n": 48, "seed": 11},
            "output": {"dir": os.path.join(tmp_path, "va")},
        }
        assert cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)]) == 0
        assert capsys.readouterr().out.count(": pass\n") == len(cli.KNOWN_CHECKS)

    def test_acf_check_scores_one_functional_for_every_constant(self, monkeypatch):
        # one functional call at C = 0; each ladder constant is scored on its
        # C-free ball integrals and gives what a direct call at that C gives
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return acf_psi_functional(*args, **kwargs)

        monkeypatch.setattr(cli, "acf_psi_functional", counted)
        header, rows, summary = cli._check_acf({**cli._CHECK_DEFAULTS, "n": 48})
        assert calls == [0.0]
        dom = build_domain("disk_minus_ball", 48, 2.0, 1.0)
        res = first_dirichlet_eig(dom, tol=1e-8)
        prof = profile_for_lambda(2, res.lam, 1024)
        radii = list(np.linspace(4 * dom.h, 0.5, 12))
        best = min(
            (acf_psi_functional(res.field, prof, (0.0, 0.0), radii, cc / prof.R_bar)
             for cc in (0.0, 1.0, 2.0, 4.0, 8.0)),
            key=lambda q: q.max_violation,
        )
        assert header == ["r", "value"]
        assert summary["C"] == best.metadata["C"]
        assert summary["max_violation"] == best.max_violation
        assert [tuple(row) for row in rows] == list(zip(best.radii, best.values))

    def test_failed_check_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "_run_check", lambda name, params, outdir: {"check": name, "passed": False}
        )
        cfg = {
            "schema": 1,
            "checks": ["gamma"],
            "output": {"dir": os.path.join(tmp_path, "vf")},
        }
        code = cli.main(["verify", "--config", write_config(tmp_path, "v.json", cfg)])
        assert code == 1
