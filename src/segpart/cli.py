"""Command-line front end: JSON-configured experiment runs.

``segpart eig|partition|sweep|verify --config path [-v]``.  The JSON config
is the experiment record; flags carry only the config path and verbosity.
Outputs are CSV, SPF1, PGM and JSON, written atomically and reproducible
byte-for-byte for a fixed config (timestamps go to a separate log file).

Exit codes: 0 success, 1 check failure, 2 config error, 3 runtime/solver
error.  A sweep also exits 3 when fewer than 80% of its r values succeed;
a failed level (infeasible, squeezed out or emptied) is an error row in
``sweep.csv``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import io as spio
from .errors import ConfigError, ConvergenceError, EmptyDomainError, EmptyRegionError
from .errors import InfeasibleError, SqueezedOutError, ConstraintViolationError
from .eigensolve import (
    cap_eigenvalue,
    first_dirichlet_eig,
    poincare_check,
)
from .grid import SHAPE_PARAM_COUNT, Mask, ScalarField, build_domain
from .monotonicity import (
    acf_psi_functional,
    build_radial_profile,
    cjk_product,
    gamma_fun,
    gamma_fun_derivative,
    mean_value_check,
    profile_for_lambda,
)
from .partition import (
    PartitionProblem,
    free_boundary_point,
    gradient_location_check,
    optimize,
    run_sweep,
)

SCHEMA_VERSION = 1
KNOWN_CHECKS = (
    "cap", "psi", "gamma", "mean_value", "acf", "cjk", "poincare", "gradient",
)

_TOP_KEYS = {
    "eig": ({"schema", "domain", "grid", "output"}, {"tolerances"}),
    "partition": ({"schema", "domain", "grid", "problem", "output"}, {"tolerances"}),
    "sweep": ({"schema", "domain", "grid", "problem", "output"}, {"tolerances"}),
    "verify": ({"schema", "checks", "output"}, {"check_params", "grid"}),
}

_SECTION_KEYS = {
    "domain": ({"shape", "params"}, set()),
    "grid": ({"n"}, set()),
    "problem": (set(), {"k", "r", "r_values", "seed"}),
    "tolerances": (set(), {"eig", "outer"}),
    "output": ({"dir"}, set()),
    "check_params": (set(), {"N", "samples", "n", "theta_nodes", "seed"}),
}

# (section, key): (integer?, lower bound, bound excluded?) of each scalar value
_VALUE_RULES = {
    ("grid", "n"): (True, 2, False),
    ("check_params", "N"): (True, 2, False),
    ("check_params", "samples"): (True, 256, False),
    ("check_params", "n"): (True, 2, False),
    ("check_params", "theta_nodes"): (True, 16, False),
    ("check_params", "seed"): (True, 0, False),
    ("tolerances", "eig"): (False, 0, True),
    ("tolerances", "outer"): (False, 0, True),
    ("problem", "k"): (True, 1, False),
    ("problem", "seed"): (True, 0, False),
    ("problem", "r"): (False, 0, False),
}


def _require_keys(obj: dict, required: set, optional: set, where: str) -> None:
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _check_value(value, where: str, integer: bool, low, strict: bool) -> None:
    """Raise ConfigError unless ``value`` is an integer (or, if not
    ``integer``, a finite number) above ``low`` (``strict``) or at least
    ``low``; booleans are rejected."""
    kinds = (int,) if integer else (int, float)
    ok = (
        not isinstance(value, bool)
        and isinstance(value, kinds)
        and not (isinstance(value, float) and not math.isfinite(value))
        and (value > low if strict else value >= low)
    )
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(
            f"{where} must be {kind} {'>' if strict else '>='} {low}, got {value!r}"
        )


def load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    required, optional = _TOP_KEYS[command]
    _require_keys(cfg, required, optional, "config")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"schema must be {SCHEMA_VERSION}")
    for section, spec in _SECTION_KEYS.items():
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"{section} must be an object")
            _require_keys(cfg[section], spec[0], spec[1], section)
    if command == "verify":
        checks = cfg.get("checks")
        if not isinstance(checks, list) or not checks:
            raise ConfigError("checks must be a nonempty list")
        for name in checks:
            if name not in KNOWN_CHECKS:
                raise ConfigError(f"unknown check {name!r}")
    for (section, key), rule in _VALUE_RULES.items():
        if key in cfg.get(section, {}):
            _check_value(cfg[section][key], f"{section}.{key}", *rule)
    r_values = cfg.get("problem", {}).get("r_values", [])
    if not isinstance(r_values, list):
        raise ConfigError(f"problem.r_values must be a list, got {r_values!r}")
    for r in r_values:
        _check_value(r, "problem.r_values entries", False, 0, False)
    return cfg


def _build_domain_from(cfg: dict):
    dom = cfg["domain"]
    shape = dom["shape"]
    if shape not in SHAPE_PARAM_COUNT:
        raise ConfigError(f"unknown shape {shape!r}")
    params = dom["params"]
    if not isinstance(params, list):
        raise ConfigError("domain.params must be a list")
    try:
        return build_domain(shape, cfg["grid"]["n"], *params)
    except EmptyDomainError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _problem_from(cfg: dict, domain, r_override=None) -> PartitionProblem:
    prob = cfg.get("problem", {})
    tol = cfg.get("tolerances", {})
    r = r_override if r_override is not None else float(prob.get("r", 0.0))
    return PartitionProblem(
        domain,
        k=int(prob.get("k", 2)),
        r=r,
        seed=int(prob.get("seed", 0)),
        tol_outer=float(tol.get("outer", 1e-6)),
        tol_eig=float(tol.get("eig", 1e-8)),
    )


def _outdir(cfg: dict) -> str:
    d = cfg["output"]["dir"]
    os.makedirs(d, exist_ok=True)
    return d


def _log(outdir: str, message: str, verbose: bool) -> None:
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(os.path.join(outdir, "run.log"), "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")
    if verbose:
        print(message, file=sys.stderr)


def cmd_eig(cfg: dict, verbose: bool = False) -> int:
    domain = _build_domain_from(cfg)
    outdir = _outdir(cfg)
    tol = float(cfg.get("tolerances", {}).get("eig", 1e-8))
    res = first_dirichlet_eig(domain, tol=tol)
    spio.write_field(os.path.join(outdir, "eigenfunction.spf1"), res.field)
    spio.write_mask(os.path.join(outdir, "mask.pgm"), Mask(domain, domain.mask))
    spio.atomic_write_text(
        os.path.join(outdir, "eigenresult.json"),
        json.dumps(res.to_sidecar(), sort_keys=True) + "\n",
    )
    print(f"lambda1={res.lam!r}")
    _log(outdir, f"eig done lambda={res.lam!r}", verbose)
    return 0


def cmd_partition(cfg: dict, verbose: bool = False) -> int:
    domain = _build_domain_from(cfg)
    outdir = _outdir(cfg)
    prob = _problem_from(cfg, domain)
    state = optimize(prob)
    manifest = {
        "k": prob.k,
        "r": prob.r,
        "lambdas": [float(v) for v in state.lambdas],
        "c": state.c,
        "seed": prob.seed,
        "tolerances": {"eig": prob.tol_eig, "outer": prob.tol_outer},
        "passes": state.metadata.get("passes"),
        "pass_style": state.metadata.get("pass_style"),
    }
    for i, f in enumerate(state.fields):
        spio.write_field(os.path.join(outdir, f"component_{i + 1}.spf1"), f)
        spio.write_mask(
            os.path.join(outdir, f"support_{i + 1}.pgm"), state.supports[i]
        )
    spio.atomic_write_text(
        os.path.join(outdir, "manifest.json"), json.dumps(manifest, sort_keys=True) + "\n"
    )
    print(f"c={state.c!r}")
    _log(
        outdir,
        f"partition done c={state.c!r} eig_solves={state.metadata['eig_solves']}"
        f" eig_memo_hits={state.metadata['eig_memo_hits']}",
        verbose,
    )
    return 0


def cmd_sweep(cfg: dict, verbose: bool = False) -> int:
    domain = _build_domain_from(cfg)
    outdir = _outdir(cfg)
    prob_cfg = cfg.get("problem", {})
    r_values = prob_cfg.get("r_values")
    if not isinstance(r_values, list) or not r_values:
        raise ConfigError("problem.r_values must be a nonempty list for sweeps")
    r_values = sorted((float(r) for r in r_values), reverse=True)
    if r_values[-1] != 0.0:
        raise ConfigError("problem.r_values must include 0")
    prob = _problem_from(cfg, domain, r_override=max(r_values))
    report = run_sweep(prob, r_values)
    spio.atomic_write_text(
        os.path.join(outdir, "sweep.csv"), "\n".join(report.to_csv_lines()) + "\n"
    )
    slope, resid = report.fitted_slope()
    failed = [q["r"] for q in report.rows if q.get("error")]
    summary = {
        "c_slope_vs_r": slope,
        "c_slope_fit_residual": resid,
        "failed_r": failed,
        "rows": len(report.rows),
    }
    spio.atomic_write_text(
        os.path.join(outdir, "sweep_summary.json"),
        json.dumps(summary, sort_keys=True) + "\n",
    )
    _log(
        outdir,
        f"sweep done slope={slope!r} failed={failed}"
        f" eig_solves={report.metadata['eig_solves']}"
        f" eig_memo_hits={report.metadata['eig_memo_hits']}",
        verbose,
    )
    ok = len(report.rows) - len(failed)
    return 0 if ok >= 0.8 * len(report.rows) else 3


def _check_rows_to_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    spio.atomic_write_text(path, "\n".join(lines) + "\n")


def _run_check(name: str, params: dict, outdir: str) -> dict:
    nn = int(params.get("N", 3))
    if name == "cap":
        rows = []
        worst_monot = 0.0
        prev = None
        theta_nodes = int(params.get("theta_nodes", 4096))
        for r in [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]:
            cs = cap_eigenvalue(nn, r, nodes=theta_nodes)
            rows.append([r, cs.lambda1])
            if prev is not None:
                worst_monot = max(worst_monot, cs.lambda1 - prev)
            prev = cs.lambda1
        _check_rows_to_csv(os.path.join(outdir, "cap.csv"), ["r", "lambda"], rows)
        err0 = abs(rows[0][1] - (nn - 1))
        slope = (cap_eigenvalue(nn, 0.01, nodes=theta_nodes).lambda1 - rows[0][1]) / 0.01
        passed = err0 <= 1e-6 and worst_monot <= 1e-9 and slope < 0
        return {"check": "cap", "passed": bool(passed),
                "lambda0_error": err0, "slope_at_0": slope}
    if name == "psi":
        samples = int(params.get("samples", 1024))
        prof = build_radial_profile(max(nn, 3), 1.0, samples)
        prof2 = build_radial_profile(max(nn, 3), 1.0, 2 * samples)
        rows = [[float(s), float(p)] for s, p in zip(prof.s, prof.psi)]
        _check_rows_to_csv(os.path.join(outdir, "psi.csv"), ["r", "psi"], rows)

        def fitted(pr):
            sel = (pr.s > 0) & (pr.s <= pr.R_bar)
            return float(np.max(np.abs(pr.psi[sel] - 1.0) / pr.s[sel]))

        c1, c2 = fitted(prof), fitted(prof2)
        drift = abs(c2 - c1) / max(c1, 1e-300)
        passed = (
            math.isfinite(c1)
            and drift <= 0.10
            and abs(prof.psi[0] - 1.0) <= 1e-8
            and abs(prof.gamma_phi[-1]) <= 1e-8
        )
        return {"check": "psi", "passed": bool(passed), "fitted_C": c1,
                "doubling_drift": drift}
    if name == "gamma":
        rows = []
        ts = np.linspace(0.0, 2.0 * nn, 41)
        for t in ts:
            rows.append([float(t), gamma_fun(nn, float(t))])
        _check_rows_to_csv(os.path.join(outdir, "gamma.csv"), ["t", "gamma"], rows)
        v = gamma_fun(nn, float(nn - 1))
        dv = gamma_fun_derivative(nn, float(nn - 1))
        passed = abs(v - 1.0) <= 1e-12 and abs(dv - 1.0 / nn) <= 1e-5
        return {"check": "gamma", "passed": bool(passed),
                "gamma_at_Nm1": v, "dgamma_at_Nm1": dv}
    if name == "mean_value":
        n = int(params.get("n", 128))
        dom = build_domain("disk", n, 1.0)
        res = first_dirichlet_eig(dom, tol=1e-10)
        prof = profile_for_lambda(2, res.lam, 1024)
        radii = [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
        rep = mean_value_check(res.field, res.lam, (0.0, 0.0), radii, prof)
        _check_rows_to_csv(
            os.path.join(outdir, "mean_value.csv"),
            ["r", "average"],
            [[float(r), float(v)] for r, v in zip(rep.radii, rep.values)],
        )
        return {"check": "mean_value", "passed": bool(rep.max_violation <= 0.01),
                "max_violation": rep.max_violation}
    if name == "acf":
        n = int(params.get("n", 128))
        dom = build_domain("disk_minus_ball", n, 2.0, 1.0)
        res = first_dirichlet_eig(dom, tol=1e-8)
        prof = profile_for_lambda(2, res.lam, 1024)
        radii = list(np.linspace(4 * dom.h, 0.5, 12))
        best, best_c = math.inf, None
        for cc in [0.0, 1.0, 2.0, 4.0, 8.0]:
            rep = acf_psi_functional(
                res.field, prof, (0.0, 0.0), radii, cc / prof.R_bar
            )
            if rep.max_violation < best:
                best, best_c = rep.max_violation, cc / prof.R_bar
                best_rep = rep
        best_rep.write_csv(os.path.join(outdir, "acf.csv"))
        return {"check": "acf", "passed": bool(best <= 0.02),
                "max_violation": best, "C": best_c}
    if name == "cjk":
        n = int(params.get("n", 128))
        dom = build_domain("rectangle", n, 2.0, 1.0)
        prob = PartitionProblem(dom, k=2, r=0.0, seed=int(params.get("seed", 0)))
        state = optimize(prob)
        pt = free_boundary_point(state)
        radii = list(np.linspace(4 * dom.h, 0.25, 10))
        rep = cjk_product(state.fields[0], state.fields[1], pt, radii)
        rep.write_csv(os.path.join(outdir, "cjk.csv"))
        vals = rep.values
        ratio = float(vals.max() / max(vals.min(), 1e-300))
        return {"check": "cjk", "passed": bool(ratio <= 50.0), "max_min_ratio": ratio}
    if name == "poincare":
        n = int(params.get("n", 128))
        dom = build_domain("disk_minus_ball", n, 2.0, 1.0)
        rng = np.random.default_rng(int(params.get("seed", 0)))
        x, y = dom.coords()
        worst = 0.0
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
                q = poincare_check(f, r)
                worst = max(worst, q)
                rows.append([r, q])
        _check_rows_to_csv(os.path.join(outdir, "poincare.csv"), ["r", "ratio"], rows)
        return {"check": "poincare", "passed": bool(math.isfinite(worst)),
                "max_ratio": worst}
    if name == "gradient":
        n = int(params.get("n", 128))
        out = {}
        for shape, args in (("disk", (1.0,)), ("square", (1.0,))):
            dom = build_domain(shape, n, *args)
            res = first_dirichlet_eig(dom, tol=1e-8)
            out[shape] = gradient_location_check(res, dom)["ratio"]
        _check_rows_to_csv(
            os.path.join(outdir, "gradient.csv"),
            ["shape", "ratio"],
            [[s, float(v)] for s, v in out.items()],
        )
        return {"check": "gradient", "passed": bool(all(v > 0.2 for v in out.values())),
                **{f"ratio_{s}": v for s, v in out.items()}}
    raise ConfigError(f"unknown check {name!r}")


def cmd_verify(cfg: dict, verbose: bool = False) -> int:
    outdir = _outdir(cfg)
    params = cfg.get("check_params", {})
    checks = cfg["checks"]
    results = [_run_check(name, params, outdir) for name in checks]
    summary = {"checks": results, "passed": all(r["passed"] for r in results)}
    spio.atomic_write_text(
        os.path.join(outdir, "verify.json"), json.dumps(summary, sort_keys=True) + "\n"
    )
    for r in results:
        print(f"{r['check']}: {'pass' if r['passed'] else 'FAIL'}")
    _log(outdir, f"verify done passed={summary['passed']}", verbose)
    return 0 if summary["passed"] else 1


_COMMANDS = {
    "eig": cmd_eig,
    "partition": cmd_partition,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="segpart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        return _COMMANDS[args.command](cfg, verbose=args.verbose)
    except (ConfigError, EmptyDomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        ConvergenceError,
        InfeasibleError,
        SqueezedOutError,
        EmptyRegionError,
        ConstraintViolationError,
        ValueError,
    ) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
