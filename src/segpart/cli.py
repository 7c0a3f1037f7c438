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
from .eigensolve import cap_eigenvalue, first_dirichlet_eig
from .grid import SHAPE_PARAM_COUNT, Mask, _ball_box, _checked, build_domain
from .monotonicity import (
    _consecutive_decrease,
    _poincare_quotients,
    _psi_values,
    acf_psi_functional,
    build_radial_profile,
    cjk_product,
    exterior_ball_nodes,
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
# check_params defaults; their minimums are in _VALUE_RULES
_CHECK_DEFAULTS = {"N": 3, "samples": 1024, "n": 128, "theta_nodes": 4096, "seed": 0}

# the keys each command reads, one row per command, so that a key it does
# not read is unknown: (required, optional) top-level keys, and the optional
# keys of its sections; every key of a _REQUIRED_KEYS section is required
_TOP_KEYS = {
    "eig": ({"schema", "domain", "grid", "output"}, {"tolerances"}),
    "partition": ({"schema", "domain", "grid", "problem", "output"}, {"tolerances"}),
    "sweep": ({"schema", "domain", "grid", "problem", "output"}, {"tolerances"}),
    "verify": ({"schema", "checks", "output"}, {"check_params"}),
}
_SECTION_KEYS = {
    "eig": {"tolerances": {"eig"}},
    "partition": {"problem": {"k", "r", "seed"}, "tolerances": {"eig", "outer"}},
    "sweep": {"problem": {"k", "r_values", "seed"}, "tolerances": {"eig", "outer"}},
    "verify": {"check_params": set(_CHECK_DEFAULTS)},
}
_REQUIRED_KEYS = {"domain": {"shape", "params"}, "grid": {"n"}, "output": {"dir"}}

# (section, key): (kind, lower bound) of each scalar value for grid._checked
_VALUE_RULES = {
    ("grid", "n"): ("int", 2),
    ("check_params", "N"): ("int", 2),
    ("check_params", "samples"): ("int", 256),
    ("check_params", "n"): ("int", 2),
    ("check_params", "theta_nodes"): ("int", 16),
    ("check_params", "seed"): ("int", 0),
    ("tolerances", "eig"): ("()", 0),
    ("tolerances", "outer"): ("()", 0),
    ("problem", "k"): ("int", 1),
    ("problem", "seed"): ("int", 0),
    ("problem", "r"): ("[)", 0),
}


def _require_keys(obj: dict, required: set, optional: set, where: str) -> None:
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _check_value(value, where: str, kind: str, low) -> None:
    """``grid._checked``, the library's one rule, raising ConfigError."""
    try:
        _checked(where, value, kind, low)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    schema = cfg["schema"]
    if type(schema) is not int or schema != SCHEMA_VERSION:  # not True, not 1.0
        raise ConfigError(f"schema must be the integer {SCHEMA_VERSION}, got {schema!r}")
    optional = _SECTION_KEYS[command]
    for section in (*_REQUIRED_KEYS, *optional):
        if section in cfg:
            if not isinstance(cfg[section], dict):
                raise ConfigError(f"{section} must be an object")
            _require_keys(cfg[section], _REQUIRED_KEYS.get(section, set()),
                          optional.get(section, set()), section)
    if command == "verify":
        checks = cfg.get("checks")
        if not isinstance(checks, list) or not checks:
            raise ConfigError("checks must be a nonempty list")
        for name in checks:
            if name not in KNOWN_CHECKS:
                raise ConfigError(f"unknown check {name!r}")
        if len(set(checks)) < len(checks):
            raise ConfigError(f"checks must not repeat a name, got {checks!r}")
    for (section, key), rule in _VALUE_RULES.items():
        if key in cfg.get(section, {}):
            _check_value(cfg[section][key], f"{section}.{key}", *rule)
    for section, key, kind in (("problem", "r_values", "[)"), ("domain", "params", "()")):
        values = cfg.get(section, {}).get(key, [])
        if not isinstance(values, list):
            raise ConfigError(f"{section}.{key} must be a list, got {values!r}")
        for v in values:
            _check_value(v, f"{section}.{key} entries", kind, 0)
    r_values = cfg.get("problem", {}).get("r_values", [])
    if len(set(r_values)) < len(r_values):
        raise ConfigError(f"problem.r_values must not repeat a value, got {r_values!r}")
    shape = cfg.get("domain", {}).get("shape")
    if "domain" in cfg and not (isinstance(shape, str) and shape in SHAPE_PARAM_COUNT):
        raise ConfigError(
            f"domain.shape must be one of {sorted(SHAPE_PARAM_COUNT)}, got {shape!r}"
        )
    outdir = cfg["output"]["dir"]
    if not (isinstance(outdir, str) and outdir):
        raise ConfigError(f"output.dir must be a nonempty path string, got {outdir!r}")
    return cfg


def _build_domain_from(cfg: dict):
    dom = cfg["domain"]
    try:
        return build_domain(dom["shape"], cfg["grid"]["n"], *dom["params"])
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
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir cannot be created: {exc}") from exc
    return d


def _log(outdir: str, message: str, verbose: bool) -> None:
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(os.path.join(outdir, "run.log"), "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")
    if verbose:
        print(message, file=sys.stderr)


def _write_csv(path: str, header: list[str], rows) -> None:
    """One CSV line per row; floats (numpy's too) as ``repr(float(v))``."""
    lines = [",".join(header)] + [
        ",".join(v if isinstance(v, str) else repr(float(v)) for v in row) for row in rows
    ]
    spio.atomic_write_text(path, "\n".join(lines) + "\n")


def _write_json(outdir: str, name: str, obj) -> None:
    spio.atomic_write_text(os.path.join(outdir, name), json.dumps(obj, sort_keys=True) + "\n")


def cmd_eig(cfg: dict, verbose: bool = False) -> int:
    domain = _build_domain_from(cfg)
    outdir = _outdir(cfg)
    tol = float(cfg.get("tolerances", {}).get("eig", 1e-8))
    res = first_dirichlet_eig(domain, tol=tol)
    spio.write_field(os.path.join(outdir, "eigenfunction.spf1"), res.field)
    spio.write_mask(os.path.join(outdir, "mask.pgm"), Mask(domain, domain.mask))
    _write_json(outdir, "eigenresult.json", res.to_sidecar())
    print(f"lambda1={res.lam!r}")
    _log(
        outdir,
        f"eig done lambda={res.lam!r} residual={res.residual!r} solves={res.iterations}",
        verbose,
    )
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
    _write_json(outdir, "manifest.json", manifest)
    print(f"c={state.c!r}")
    _log(
        outdir,
        f"partition done c={state.c!r} eig_solves={state.metadata['eig_solves']}"
        f" eig_memo_hits={state.metadata['eig_memo_hits']}",
        verbose,
    )
    return 0


def cmd_sweep(cfg: dict, verbose: bool = False) -> int:
    r_values = cfg["problem"].get("r_values")
    if not isinstance(r_values, list) or not r_values:
        raise ConfigError("problem.r_values must be a nonempty list for sweeps")
    r_values = sorted((float(r) for r in r_values), reverse=True)
    if r_values[-1] != 0.0:
        raise ConfigError("problem.r_values must include 0")
    domain = _build_domain_from(cfg)
    outdir = _outdir(cfg)
    prob = _problem_from(cfg, domain)
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
    _write_json(outdir, "sweep_summary.json", summary)
    _log(
        outdir,
        f"sweep done slope={slope!r} failed={failed}"
        f" eig_solves={report.metadata['eig_solves']}"
        f" eig_memo_hits={report.metadata['eig_memo_hits']}",
        verbose,
    )
    ok = len(report.rows) - len(failed)
    return 0 if ok >= 0.8 * len(report.rows) else 3


# Each verify check takes check_params merged over _CHECK_DEFAULTS and
# returns (csv header, csv rows, summary); the summary carries "passed".
# A monotonicity check fails when its radii span less than one lattice
# spacing h: on a coarse grid its smallest radius, 4h, comes within h of its
# largest, consecutive balls hold nearly the same nodes, and the check would
# pass almost vacuously.
def _spans_a_cell(radii, h: float) -> bool:
    """Whether the radii span at least h, up to the 1e-12 relative rounding
    tie that ``grid.dilate`` and ``grid.erode`` allow (0.5 - 4 * 0.1 falls
    short of 0.1 in the last bit)."""
    return radii[-1] - radii[0] >= h * (1 - 1e-12)


def _check_cap(p: dict):
    nn, nodes = p["N"], p["theta_nodes"]
    radii = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]
    lams = [cap_eigenvalue(nn, r, nodes=nodes).lambda1 for r in radii]
    err0 = abs(lams[0] - (nn - 1))
    rise = max(b - a for a, b in zip(lams, lams[1:]))
    slope = (cap_eigenvalue(nn, 0.01, nodes=nodes).lambda1 - lams[0]) / 0.01
    # lambda(0)'s error grows like N - 1: about 1.2e-8 (N - 1) at 4096 nodes
    return ["r", "lambda"], zip(radii, lams), {
        "lambda0_error": err0,
        "slope_at_0": slope,
        "passed": err0 <= 5e-7 * (nn - 1) and rise <= 1e-9 and slope < 0,
    }


def _check_psi(p: dict):
    dim, samples = max(p["N"], 3), p["samples"]
    prof = build_radial_profile(dim, 1.0, samples)

    def fitted(pr):
        sel = (pr.s > 0) & (pr.s <= pr.R_bar)
        return float(np.max(np.abs(pr.psi[sel] - 1.0) / pr.s[sel]))

    c1 = fitted(prof)
    drift = abs(fitted(build_radial_profile(dim, 1.0, 2 * samples)) - c1) / max(c1, 1e-300)
    passed = (
        math.isfinite(c1)
        and drift <= 0.10
        and abs(prof.psi[0] - 1.0) <= 1e-8
        and abs(prof.gamma_phi[-1]) <= 1e-8
    )
    return ["r", "psi"], zip(prof.s, prof.psi), {
        "fitted_C": c1, "doubling_drift": drift, "passed": passed,
    }


def _check_gamma(p: dict):
    nn = p["N"]
    rows = [[t, gamma_fun(nn, float(t))] for t in np.linspace(0.0, 2.0 * nn, 41)]
    v = gamma_fun(nn, float(nn - 1))
    dv = gamma_fun_derivative(nn, float(nn - 1))
    return ["t", "gamma"], rows, {
        "gamma_at_Nm1": v,
        "dgamma_at_Nm1": dv,
        "passed": abs(v - 1.0) <= 1e-12 and abs(dv - 1.0 / nn) <= 1e-5,
    }


def _check_mean_value(p: dict):
    res = first_dirichlet_eig(build_domain("disk", p["n"], 1.0), tol=1e-10)
    prof = profile_for_lambda(2, res.lam, 1024)
    radii = [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
    rep = mean_value_check(res.field, res.lam, (0.0, 0.0), radii, prof)
    return ["r", "average"], zip(rep.radii, rep.values), {
        "max_violation": rep.max_violation, "passed": rep.max_violation <= 0.01,
    }


def _check_acf(p: dict):
    dom = build_domain("disk_minus_ball", p["n"], 2.0, 1.0)
    res = first_dirichlet_eig(dom, tol=1e-8)
    prof = profile_for_lambda(2, res.lam, 1024)
    radii = list(np.linspace(4 * dom.h, 0.5, 12))
    try:
        rep = acf_psi_functional(res.field, prof, (0.0, 0.0), radii, 0.0)
    except ValueError:
        # on a coarse grid the working ball reaches phi's zero: the check
        # fails with no functional values, and the other checks still run
        return ["r", "value"], ((r, math.nan) for r in sorted(radii)), {
            "max_violation": None, "C": None, "passed": False,
        }

    # only the factor e^(Cr) depends on C: score each constant on the
    # report's ball integrals; the first with the least violation wins
    def scored(cc):
        C = cc / prof.R_bar
        values = _psi_values(rep.metadata["ball_integrals"], rep.radii, C)
        return _consecutive_decrease(values), C, values

    worst, C, values = min(map(scored, (0.0, 1.0, 2.0, 4.0, 8.0)), key=lambda t: t[0])
    return ["r", "value"], zip(rep.radii, values), {
        "max_violation": worst,
        "C": C,
        "passed": _spans_a_cell(radii, dom.h) and worst <= 0.02,
    }


def _check_cjk(p: dict):
    dom = build_domain("rectangle", p["n"], 2.0, 1.0)
    state = optimize(PartitionProblem(dom, k=2, r=0.0, seed=p["seed"]))
    radii = list(np.linspace(4 * dom.h, 0.25, 10))
    rep = cjk_product(state.fields[0], state.fields[1], free_boundary_point(state), radii)
    ratio = float(rep.values.max() / max(rep.values.min(), 1e-300))
    return ["r", "value"], zip(rep.radii, rep.values), {
        "max_min_ratio": ratio,
        "passed": _spans_a_cell(radii, dom.h) and ratio <= 50.0,
    }


def _check_poincare(p: dict):
    dom = build_domain("disk_minus_ball", p["n"], 2.0, 1.0)
    rng = np.random.default_rng(p["seed"])
    x, y = dom.coords()
    excluded = exterior_ball_nodes(dom)
    rows = []
    for r in (0.25, 0.5, 1.0):
        # the same draws as one standard_normal(6) per field
        c = rng.standard_normal((40, 6))[:, :, None, None]
        try:
            # the quotient reads only the ball's box, so the fields are
            # built there alone; c5 * x * y is evaluated left to right, as
            # (c5 * x) * y, since hoisting x * y changes bits
            box, rho = _ball_box(dom, r, (0.0, 0.0))
            xb, yb = x[box], y[box]
            vals = np.where(dom.mask[box], (
                c[:, 0]
                + c[:, 1] * xb + c[:, 2] * yb
                + c[:, 3] * np.sin(2 * xb) + c[:, 4] * np.cos(2 * yb)
                + c[:, 5] * xb * yb
            ), 0.0)
            ratios = _poincare_quotients(dom, vals, r, box, rho, excluded).tolist()
        except ValueError:
            # on a coarse grid the r = 0.25 ball holds no mask node: the
            # radius gets NaN rows, the check fails and the others still run
            ratios = [math.nan] * len(c)
        rows.extend([r, q] for q in ratios)
    ran = [q for _, q in rows if not math.isnan(q)]
    worst = max(ran, default=0.0)
    return ["r", "ratio"], rows, {
        "max_ratio": worst, "passed": len(ran) == len(rows) and math.isfinite(worst),
    }


def _check_gradient(p: dict):
    ratios = {}
    for shape in ("disk", "square"):
        dom = build_domain(shape, p["n"], 1.0)
        res = first_dirichlet_eig(dom, tol=1e-8)
        ratios[shape] = gradient_location_check(res, dom)["ratio"]
    return ["shape", "ratio"], ratios.items(), {
        **{f"ratio_{s}": v for s, v in ratios.items()},
        "passed": all(v > 0.2 for v in ratios.values()),
    }


_CHECKS = {
    "cap": _check_cap,
    "psi": _check_psi,
    "gamma": _check_gamma,
    "mean_value": _check_mean_value,
    "acf": _check_acf,
    "cjk": _check_cjk,
    "poincare": _check_poincare,
    "gradient": _check_gradient,
}
KNOWN_CHECKS = tuple(_CHECKS)


def _run_check(name: str, params: dict, outdir: str) -> dict:
    header, rows, summary = _CHECKS[name]({**_CHECK_DEFAULTS, **params})
    _write_csv(os.path.join(outdir, f"{name}.csv"), header, rows)
    return {"check": name, **summary, "passed": bool(summary["passed"])}


def cmd_verify(cfg: dict, verbose: bool = False) -> int:
    outdir = _outdir(cfg)
    params = cfg.get("check_params", {})
    checks = cfg["checks"]
    results = [_run_check(name, params, outdir) for name in checks]
    summary = {"checks": results, "passed": all(r["passed"] for r in results)}
    _write_json(outdir, "verify.json", summary)
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
