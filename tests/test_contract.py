"""The argument contract of the public API, probed table by table.

Every numeric slot of every name in ``segpart.__all__`` is called with each
of nan, inf, -inf, -1, 0, True and 2.5.  A call either raises ValueError
naming the slot and the value (the one rule, ``grid._checked``), or is
listed in ``VALID`` with the reason the value is a valid argument.  No call
may raise numpy's TypeError, warn with a RuntimeWarning or return a NaN.
"""

import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import segpart as sp

BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0,
       "True": True, "2.5": 2.5}


@pytest.fixture(scope="module")
def ctx():
    disk = sp.build_domain("disk", 16, 1.0)
    eig = sp.first_dirichlet_eig(disk)
    lune = sp.build_domain("disk_minus_ball", 32, 2.0, 1.0)
    lune_eig = sp.first_dirichlet_eig(lune)
    rect = sp.build_domain("rectangle", 16, 2.0, 1.0)
    prob = sp.PartitionProblem(rect, k=2, r=0.0, seed=0)
    state = sp.optimize(prob)
    return SimpleNamespace(
        disk=disk, eig=eig, profile=sp.profile_for_lambda(2, eig.lam, 256),
        mask=sp.Mask(disk, disk.mask & (disk.coords()[0] < 0)), lune=lune,
        lune_eig=lune_eig, lune_profile=sp.profile_for_lambda(2, lune_eig.lam, 256),
        prob=prob, state=state, point=sp.free_boundary_point(state),
    )


def grid_domain(nx=4, ny=4, h=0.25, corner=0.0):
    return sp.GridDomain(nx, ny, h, np.ones((4, 4), dtype=bool), (corner, 0.0))


def problem(slot):
    """A PartitionProblem with ``slot`` set; k = 1 makes no separation infeasible."""
    return lambda c, v: sp.PartitionProblem(c.prob.domain, **{"k": 1, "r": 0.0, slot: v})


# public name -> {slot: call(ctx, value)}, the other arguments valid; a
# point slot (center, bbox) takes the value as its first coordinate and a
# list slot (params, radii, r_values) as its first entry
SLOTS = {
    "GridDomain": {
        "nx": lambda c, v: grid_domain(nx=v),
        "ny": lambda c, v: grid_domain(ny=v),
        "h": lambda c, v: grid_domain(h=v),
        "bbox": lambda c, v: grid_domain(corner=v),
    },
    "GridDomain.raw": {
        "nx": lambda c, v: sp.GridDomain.raw(v, 4, 0.25),
        "ny": lambda c, v: sp.GridDomain.raw(4, v, 0.25),
        "h": lambda c, v: sp.GridDomain.raw(4, 4, v),
    },
    "build_domain": {
        "n": lambda c, v: sp.build_domain("disk", v, 1.0),
        "params": lambda c, v: sp.build_domain("disk", 16, v),
    },
    "dilate": {"r": lambda c, v: sp.dilate(c.mask, v)},
    "erode": {"r": lambda c, v: sp.erode(c.mask, v)},
    "norms": {
        "alpha": lambda c, v: sp.norms(c.eig.field, v),
        "holder_floor": lambda c, v: sp.norms(c.eig.field, holder_floor=v),
    },
    "first_dirichlet_eig": {
        "tol": lambda c, v: sp.first_dirichlet_eig(c.disk, tol=v),
        "seed": lambda c, v: sp.first_dirichlet_eig(c.disk, seed=v),
    },
    "bessel_first_zero": {"nu": lambda c, v: sp.bessel_first_zero(v)},
    "radial_ground_state": {
        "dim": lambda c, v: sp.radial_ground_state(v, 1.0, 64),
        "radius": lambda c, v: sp.radial_ground_state(3, v, 64),
        "samples": lambda c, v: sp.radial_ground_state(3, 1.0, v),
    },
    "cap_eigenvalue": {
        "dim": lambda c, v: sp.cap_eigenvalue(v, 0.5, nodes=64),
        "r": lambda c, v: sp.cap_eigenvalue(3, v, nodes=64),
        "nodes": lambda c, v: sp.cap_eigenvalue(3, 0.5, nodes=v),
    },
    "poincare_check": {
        "r": lambda c, v: sp.poincare_check(c.lune_eig.field, v),
        "center": lambda c, v: sp.poincare_check(c.lune_eig.field, 0.5, (v, 1.0)),
    },
    "build_radial_profile": {
        "dim": lambda c, v: sp.build_radial_profile(v, 1.0, 256),
        "R_bar": lambda c, v: sp.build_radial_profile(3, v, 256),
        "samples": lambda c, v: sp.build_radial_profile(3, 1.0, v),
    },
    "profile_for_lambda": {
        "dim": lambda c, v: sp.profile_for_lambda(v, 5.0, 256),
        "lambda_bar": lambda c, v: sp.profile_for_lambda(3, v, 256),
        "samples": lambda c, v: sp.profile_for_lambda(3, 5.0, v),
    },
    "gamma_fun": {
        "dim": lambda c, v: sp.gamma_fun(v, 0.5),
        "t": lambda c, v: sp.gamma_fun(3, v),
    },
    "gamma_fun_derivative": {
        "dim": lambda c, v: sp.gamma_fun_derivative(v, 0.5),
        "t": lambda c, v: sp.gamma_fun_derivative(3, v),
    },
    # the zero field is a subsolution for every lambda up to lambda_bar
    "mean_value_check": {
        "lam": lambda c, v: sp.mean_value_check(
            sp.ScalarField.zeros(c.disk), v, (0.0, 0.0), [0.1, 0.3], c.profile),
        "center": lambda c, v: sp.mean_value_check(
            sp.ScalarField.zeros(c.disk), c.eig.lam, (v, 0.0), [0.1, 0.3], c.profile),
        "radii": lambda c, v: sp.mean_value_check(
            sp.ScalarField.zeros(c.disk), c.eig.lam, (0.0, 0.0), [v, 0.3], c.profile),
    },
    "acf_psi_functional": {
        "C": lambda c, v: sp.acf_psi_functional(
            c.lune_eig.field, c.lune_profile, (0.0, 0.0), [0.2, 0.4], v),
        "center": lambda c, v: sp.acf_psi_functional(
            c.lune_eig.field, c.lune_profile, (v, 0.0), [0.2, 0.4], 0.0),
        "radii": lambda c, v: sp.acf_psi_functional(
            c.lune_eig.field, c.lune_profile, (0.0, 0.0), [v, 0.4], 0.0),
    },
    "cjk_product": {
        "center": lambda c, v: sp.cjk_product(*c.state.fields, (v, c.point[1]), [0.2, 0.4]),
        "radii": lambda c, v: sp.cjk_product(*c.state.fields, c.point, [v, 0.4]),
    },
    "PartitionProblem": {
        slot: problem(slot) for slot in ("k", "r", "seed", "tol_outer", "tol_eig", "tau")
    },
    "init_partition": {"seed": lambda c, v: sp.init_partition(c.prob, seed=v)},
    "cutoff_competitor": {"r": lambda c, v: sp.cutoff_competitor(c.state, c.prob, v)},
    "run_sweep": {"r_values": lambda c, v: sp.run_sweep(c.prob, [v, 0.0])},
}

# names with no numeric slot, and why
NO_SLOTS = {
    **dict.fromkeys(["Mask", "ScalarField"], "node arrays on a domain"),
    **dict.fromkeys(
        ["distance_transform", "discrete_gradient", "gradient_magnitude", "dirichlet_energy",
         "rayleigh_quotient", "exterior_ball_nodes", "gradient_location_check",
         "free_boundary_point"],
        "takes fields, masks or domains only"),
    **dict.fromkeys(
        ["EigenResult", "CapSpectrum", "RadialGroundState", "RadialProfile",
         "MonotonicityReport", "PartitionState", "SweepReport"],
        "a result record, built by the library from checked arguments"),
    **dict.fromkeys(
        ["relax_step", "optimize"],
        "takes a checked PartitionProblem, a state and sites (lattice nodes)"),
    **dict.fromkeys(
        ["ConfigError", "ConstraintViolationError", "ConvergenceError", "EmptyDomainError",
         "EmptyRegionError", "InfeasibleError", "SqueezedOutError"],
        "an exception type"),
}

# (name, slot, value) -> the reason the value is valid: the call returns, or
# after the reason the exception it raises for another cause than the value's
# form
VALID = {
    **{("GridDomain", "bbox", v): "a corner anywhere in the plane" for v in ("-1", "0", "2.5")},
    ("GridDomain", "h", "2.5"): "a spacing",
    ("GridDomain.raw", "h", "2.5"): "a spacing",
    ("build_domain", "params", "2.5"): "a disk of radius 2.5",
    **{(op, "r", v): why for op in ("dilate", "erode") for v, why in (
        ("0", "r = 0 leaves the mask as it is"),
        ("inf", "an infinite radius reaches every node"),
        ("2.5", "a radius"))},
    ("norms", "holder_floor", "0"): "no floor",
    ("norms", "holder_floor", "2.5"): "a floor above the seminorm",
    ("first_dirichlet_eig", "tol", "2.5"): "a loose tolerance",
    **{("first_dirichlet_eig", "seed", v): "ignored: no step of the solve is random"
       for v in BAD},
    ("bessel_first_zero", "nu", "0"): "nu = 0, the order of J_0",
    ("bessel_first_zero", "nu", "2.5"): "an order in [0, 5]",
    ("radial_ground_state", "radius", "2.5"): "a radius",
    ("cap_eigenvalue", "r", "0"): "r = 0, the hemisphere",
    ("poincare_check", "r", "2.5"): "a ball over the whole lune",
    **{("poincare_check", "center", v): "a centre whose ball meets the field"
       for v in ("-1", "0")},
    ("poincare_check", "center", "2.5"): (
        "a point of the plane; the field vanishes on its ball", ValueError),
    ("build_radial_profile", "R_bar", "2.5"): "a radius",
    ("profile_for_lambda", "lambda_bar", "2.5"): "an eigenvalue",
    **{(fun, "t", v): why for fun in ("gamma_fun", "gamma_fun_derivative") for v, why in (
        ("0", "t = 0, where gamma vanishes"), ("2.5", "an argument t >= 0"))},
    **{("mean_value_check", "lam", v): "a real lambda below the profile's"
       for v in ("-1", "0", "2.5")},
    ("mean_value_check", "center", "0"): "the disk's centre",
    ("mean_value_check", "center", "-1"): (
        "a point of the plane; the disk's rim lies within the radii", ValueError),
    ("mean_value_check", "center", "2.5"): (
        "a point of the plane; its balls hold no lattice node", ValueError),
    ("mean_value_check", "radii", "2.5"): (
        "a radius; it reaches the profile's zero", ValueError),
    **{("acf_psi_functional", "C", v): "a real constant" for v in ("-1", "0", "2.5")},
    ("acf_psi_functional", "center", "0"): "the contact point of the exterior ball",
    ("acf_psi_functional", "center", "-1"): "the exterior ball's centre, where u vanishes",
    ("acf_psi_functional", "center", "2.5"): (
        "a point of the plane; its ball leaks through the boundary", ValueError),
    ("acf_psi_functional", "radii", "2.5"): (
        "a radius; its ball reaches phi's zero", ValueError),
    ("cjk_product", "center", "0"): "a point on the rectangle's edge",
    **{("cjk_product", "center", v): (
        "a point of the plane; its balls hold no lattice node", ValueError)
       for v in ("-1", "2.5")},
    ("cjk_product", "radii", "2.5"): "a radius",
    ("PartitionProblem", "r", "0"): "r = 0, touching supports",
    ("PartitionProblem", "r", "2.5"): "a separation (k = 1 needs none)",
    ("PartitionProblem", "seed", "0"): "a seed",
    ("PartitionProblem", "tau", "0"): "tau = 0, the exact positivity set",
    ("PartitionProblem", "tol_outer", "2.5"): "a loose tolerance",
    ("PartitionProblem", "tol_eig", "2.5"): "a loose tolerance",
    ("init_partition", "seed", "0"): "a seed",
    ("cutoff_competitor", "r", "0"): "r = 0, the cutoff at the nodal set",
    ("cutoff_competitor", "r", "2.5"): (
        "a separation; the cutoff annihilates every component", sp.EmptyRegionError),
    ("run_sweep", "r_values", "0"): "a sweep of two levels at r = 0",
    ("run_sweep", "r_values", "2.5"): (
        "a separation; two components cannot lie 2.5 apart, so that level is an error row"),
}

CASES = [(name, slot, label) for name, slots in SLOTS.items() for slot in slots for label in BAD]


def nan_free(out) -> bool:
    """Whether no float reachable from ``out`` is NaN."""
    if isinstance(out, (float, np.floating)):
        return not math.isnan(out)
    if isinstance(out, np.ndarray):
        return out.dtype.kind != "f" or not np.isnan(out).any()
    if isinstance(out, dict):
        return all(map(nan_free, out.values()))
    if isinstance(out, (list, tuple)):
        return all(map(nan_free, out))
    if dataclasses.is_dataclass(out):
        return all(nan_free(getattr(out, f.name)) for f in dataclasses.fields(out))
    return True


@pytest.mark.parametrize("name, slot, label", CASES, ids=["-".join(c) for c in CASES])
def test_slot_takes_a_number_by_the_one_rule(ctx, name, slot, label):
    value, valid = BAD[label], VALID.get((name, slot, label))
    call = SLOTS[name][slot]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if valid is None:
            with pytest.raises(ValueError) as exc:
                call(ctx, value)
            # the slot, after words that describe it or with an index
            named = rf"^(\w+ )*{re.escape(slot)}(\[\d+\])? must .*, got {re.escape(repr(value))}$"
            assert re.match(named, str(exc.value)), str(exc.value)
        elif isinstance(valid, tuple):
            with pytest.raises(valid[1]) as exc:
                call(ctx, value)
            assert not re.search(rf"\b{re.escape(slot)}\b.* must ", str(exc.value))
        else:
            assert nan_free(call(ctx, value))


def test_every_public_name_has_a_row():
    assert sorted(set(sp.__all__) - set(SLOTS) - set(NO_SLOTS)) == []
    assert not set(SLOTS) & set(NO_SLOTS)


def test_every_valid_case_is_a_probed_slot():
    assert set(VALID) <= set(CASES)
