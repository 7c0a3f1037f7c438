import functools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from oracles import coo_laplacian

import segpart as sp
from segpart.errors import ConstraintViolationError
from segpart.grid import GridDomain, ScalarField, _ball_box, build_domain, discrete_gradient
from segpart.monotonicity import (
    MonotonicityReport,
    _ball_averages,
    _consecutive_decrease,
    _psi_values,
    _sorted_radii,
    acf_psi_functional,
    ball_sum,
    build_radial_profile,
    cjk_product,
    exterior_ball_nodes,
    gamma_fun,
    gamma_fun_derivative,
    mean_value_check,
    profile_for_lambda,
)


class TestGammaFun:
    def test_zero(self):
        assert gamma_fun(3, 0.0) == 0.0
        assert gamma_fun(7, 0.0) == 0.0

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_value_one_at_dim_minus_one(self, dim):
        assert gamma_fun(dim, float(dim - 1)) == pytest.approx(1.0, abs=1e-12)

    def test_derivative_one_over_dim(self):
        assert gamma_fun_derivative(5, 4.0) == pytest.approx(0.2, abs=1e-6)
        assert gamma_fun_derivative(3, 2.0) == pytest.approx(1 / 3, abs=1e-6)

    @pytest.mark.parametrize(
        "dim, t, expected",
        [(3, 2.0, 1 / 3), (5, 4.0, 0.2), (6, 5.0, 1 / 6), (3, 0.0, 1.0), (6, 0.0, 0.25)],
    )
    def test_derivative_closed_form(self, dim, t, expected):
        assert gamma_fun_derivative(dim, t) == pytest.approx(expected, rel=1e-15)

    def test_derivative_infinite_at_origin_in_the_plane(self):
        assert gamma_fun_derivative(2, 0.0) == math.inf
        assert gamma_fun_derivative(2, 1.0) == 0.5

    def test_derivative_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            gamma_fun_derivative(3, -0.5)

    def test_concave_increasing(self):
        t = np.linspace(0.0, 12.0, 1000)
        vals = np.array([gamma_fun(4, float(x)) for x in t])
        first = np.diff(vals)
        assert np.all(first > 0)
        assert np.all(np.diff(first) <= 1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            gamma_fun(3, -0.5)


class TestRadialProfile:
    def test_gamma_endpoint_and_psi_origin(self):
        prof = build_radial_profile(3, 1.0, 512)
        assert prof.gamma_phi[-1] == 0.0
        assert prof.psi[0] == 1.0
        assert prof.psi[-1] == pytest.approx(0.0, abs=1e-12)

    def test_psi_positive_through_R_bar(self):
        prof = build_radial_profile(4, 0.8, 512)
        sel = prof.s <= prof.R_bar
        assert np.all(prof.psi[sel] > 0)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_gamma_matches_quadrature(self, dim, R):
        prof = build_radial_profile(dim, R, 1024)
        for i in (1, 100, 400, 800):
            r = prof.s[i]
            expect, _ = scipy.integrate.quad(
                lambda t: (dim - 2) * t ** (1 - dim) / float(prof.phi_at(t)) ** 2,
                r, 1.5 * R, epsabs=0.0, epsrel=1e-13, limit=200,
            )
            assert prof.gamma_phi[i] == pytest.approx(expect, rel=1e-10)

    def test_psi_linear_bound_constant_stable(self):
        prof1 = build_radial_profile(3, 1.0, 512)
        prof2 = build_radial_profile(3, 1.0, 1024)

        def fitted(pr):
            sel = (pr.s > 0) & (pr.s <= pr.R_bar)
            return float(np.max(np.abs(pr.psi[sel] - 1.0) / pr.s[sel]))

        c1, c2 = fitted(prof1), fitted(prof2)
        assert math.isfinite(c1) and c1 > 0
        assert abs(c2 - c1) / c1 <= 0.10

    def test_profile_for_lambda_inverts_radius(self):
        for dim, lam in ((2, 5.0), (3, 7.3), (5, 0.1)):
            prof = profile_for_lambda(dim, lam, 512)
            assert prof.lambda_bar == lam
            # the ball it places has lambda_bar as its first eigenvalue
            ball = build_radial_profile(dim, prof.R_bar, 512)
            assert ball.lambda_bar == pytest.approx(lam, rel=1e-14)

    def test_planar_profile_has_no_gamma(self):
        prof = build_radial_profile(2, 1.0, 512)
        assert prof.gamma_phi is None and prof.psi is None
        assert prof.phi_at(0.0) == pytest.approx(1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_radial_profile(1, 1.0)
        with pytest.raises(ValueError):
            build_radial_profile(3, 0.0)
        with pytest.raises(ValueError):
            build_radial_profile(3, 1.0, samples=100)
        # a non-finite radius or eigenvalue would give an all-NaN profile
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                build_radial_profile(2, bad)
            with pytest.raises(ValueError, match="finite"):
                profile_for_lambda(3, bad)


class TestBallSum:
    def test_plain_sum_matches_loop(self):
        dom = build_domain("square", 24, 1.0)
        rng = np.random.default_rng(6)
        vals = rng.random(dom.mask.shape)
        # no lattice node lies at distance 0.1, 0.3 or 0.45 from the center
        radii = [0.1, 0.3, 0.45]
        box, rho = _ball_box(dom, max(radii), (0.5, 0.5))
        got = ball_sum(vals[box], rho, radii, dom.h)
        assert got.shape == (len(radii),)
        x, y = dom.coords()
        for r, g in zip(radii, got):
            expect = 0.0
            for i in range(dom.nx):
                for j in range(dom.ny):
                    if (x[i, j] - 0.5) ** 2 + (y[i, j] - 0.5) ** 2 <= r * r:
                        expect += vals[i, j] * dom.h**2
            assert g == pytest.approx(expect, rel=1e-12)


class TestMeanValue:
    def test_constant_field_zero_lambda(self):
        dom = build_domain("disk", 64, 1.0)
        f = ScalarField.from_values(dom, np.ones(dom.mask.shape))
        prof = profile_for_lambda(2, 1.0, 512)
        rep = mean_value_check(f, 0.0, (0.0, 0.0), [0.2, 0.4, 0.6], prof)
        assert rep.max_violation == 0.0
        # averages are constant up to the boundary-cell wobble
        assert np.ptp(rep.values) / rep.values.mean() < 0.1

    def test_disk_ground_state_against_radial_oracle(self, disk_eig_128):
        dom, res = disk_eig_128
        prof = profile_for_lambda(2, res.lam, 1024)
        radii = [0.2, 0.4, 0.6, 0.8]
        rep = mean_value_check(res.field, res.lam, (0.0, 0.0), radii, prof)
        assert rep.max_violation == 0.0
        # independent radial-quadrature oracle for the ball averages
        j0 = 2.404825557695773
        norm = math.sqrt(math.pi) * scipy.special.j1(j0)
        for r, got in zip(rep.radii, rep.values):
            val, _ = scipy.integrate.quad(
                lambda t: scipy.special.j0(j0 * t) * t, 0.0, r
            )
            oracle = 2 * math.pi * val / (norm * r * r)
            assert got == pytest.approx(oracle, rel=0.05)

    def test_gradient_squared_variant(self, disk_eig_128):
        dom, res = disk_eig_128
        gx, gy = discrete_gradient(res.field)
        v = ScalarField(dom, gx.values**2 + gy.values**2)
        prof = profile_for_lambda(2, 2 * res.lam, 1024)
        rep = mean_value_check(
            v, 2 * res.lam, (0.0, 0.0), [0.1, 0.25, 0.4, 0.55], prof
        )
        assert rep.max_violation == 0.0

    def test_phi_weighted_averages_nearly_monotone(self, disk_eig_128):
        dom, res = disk_eig_128
        prof = profile_for_lambda(2, res.lam, 1024)
        rep = mean_value_check(
            res.field, res.lam, (0.0, 0.0), [0.2, 0.3, 0.4, 0.5, 0.6, 0.7], prof
        )
        weighted = rep.metadata["phi_weighted_averages"]
        drops = (weighted[:-1] - weighted[1:]) / weighted[:-1]
        assert drops.max() <= 0.02  # discretization tolerance, halves with h

    def test_center_off_mask_rejected(self, disk_eig_128):
        dom, res = disk_eig_128
        prof = profile_for_lambda(2, res.lam, 512)
        with pytest.raises(ValueError):
            mean_value_check(res.field, res.lam, (1.5, 1.5), [0.1, 0.2], prof)

    def test_radii_beyond_inscribed_rejected(self, disk_eig_128):
        dom, res = disk_eig_128
        prof = profile_for_lambda(2, res.lam / 4.0, 512)  # large reference ball
        with pytest.raises(ValueError, match="inscribed"):
            mean_value_check(res.field, res.lam / 4, (0.0, 0.0), [0.5, 1.4], prof)

    @pytest.mark.parametrize("ring", [False, True])
    def test_subsolution_defect_counts_inside_the_outer_ring(self, ring):
        # a defect above tol at one node with rho <= rmax - h raises; the
        # same excess on the outer ring rmax - h < rho <= rmax, where the
        # stencil may reach past the region, is not checked
        dom = build_domain("disk", 48, 1.0)
        res = sp.first_dirichlet_eig(dom, tol=1e-10)
        prof = profile_for_lambda(2, res.lam, 512)
        radii, rmax, h = [0.3, 0.6], 0.6, dom.h
        mean_value_check(res.field, res.lam, (0.0, 0.0), radii, prof)
        node = dom.nearest_node((rmax - (0.5 if ring else 1.5) * h, 0.0))
        rho = float(np.hypot(*dom.coords())[node])
        assert (rmax - h < rho <= rmax) == ring and rho <= rmax
        # raising one value by delta raises that node's defect by
        # (4/h^2 - lam) delta, about 2e-3 here, and lowers its neighbours'
        vals = res.field.values.copy()
        vals[node] += 1e-6
        bumped = ScalarField(dom, vals)
        if ring:
            mean_value_check(bumped, res.lam, (0.0, 0.0), radii, prof)
        else:
            with pytest.raises(ConstraintViolationError, match="subsolution"):
                mean_value_check(bumped, res.lam, (0.0, 0.0), radii, prof)

    def test_subsolution_check_trips(self):
        dom = build_domain("disk", 48, 1.0)
        x, y = dom.coords()
        # strongly superharmonic bump is not a 0-subsolution
        f = ScalarField.from_values(dom, np.exp(-8 * (x**2 + y**2)))
        prof = profile_for_lambda(2, 1.0, 512)
        with pytest.raises(ConstraintViolationError, match="subsolution"):
            mean_value_check(f, 0.0, (0.0, 0.0), [0.2, 0.4], prof)


@pytest.fixture(scope="module")
def lune_state():
    dom = build_domain("disk_minus_ball", 128, 2.0, 1.0)
    res = sp.first_dirichlet_eig(dom, tol=1e-9)
    prof = profile_for_lambda(2, res.lam, 1024)
    return dom, res, prof


class TestAcfPsi:
    def test_zero_field_zero_functional(self, lune_state):
        dom, res, prof = lune_state
        rep = acf_psi_functional(
            ScalarField.zeros(dom), prof, (0.0, 0.0), [0.1, 0.2, 0.3], 0.0
        )
        assert np.all(rep.values == 0.0)
        assert rep.max_violation == 0.0

    def test_scan_finds_monotone_constant(self, lune_state):
        dom, res, prof = lune_state
        radii = list(np.linspace(4 * dom.h, 0.5, 12))
        violations = {}
        for c_over_R in (0.0, 1.0, 2.0, 4.0, 8.0):
            rep = acf_psi_functional(
                res.field, prof, (0.0, 0.0), radii, c_over_R / prof.R_bar
            )
            violations[c_over_R] = rep.max_violation
        assert min(violations.values()) <= 0.02
        # the exponential correction is what restores monotonicity
        assert violations[8.0] <= violations[0.0]

    def test_sandwich_bounds(self, lune_state):
        dom, res, prof = lune_state
        radii = list(np.linspace(4 * dom.h, 0.5, 10))
        rep = acf_psi_functional(res.field, prof, (0.0, 0.0), radii, 1.0 / prof.R_bar)
        grad_avg = rep.metadata["gradient_averages"]
        c_lower = np.max(grad_avg / rep.values)
        c_upper = np.max(rep.values / grad_avg)
        assert c_lower < 1e3 and c_upper < 1e3

    def test_constraint_violating_field_rejected(self, lune_state):
        dom, res, prof = lune_state
        bad = np.ones(dom.mask.shape)
        from segpart.grid import GridDomain

        raw = GridDomain.raw(dom.nx, dom.ny, dom.h, dom.bbox)
        f = ScalarField(raw, bad)
        with pytest.raises(ConstraintViolationError):
            acf_psi_functional(
                f, prof, (0.0, 0.0), [0.1, 0.2], 0.0,
                excluded=sp.exterior_ball_nodes(dom),
            )

    def test_center_near_outer_boundary_rejected(self, lune_state):
        dom, res, prof = lune_state
        with pytest.raises(ValueError, match="outer boundary"):
            acf_psi_functional(res.field, prof, (1.8, 0.0), [0.1, 0.5], 0.0)


class TestCjk:
    def test_zero_second_phase(self):
        dom = build_domain("square", 32, 1.0)
        x, _ = dom.coords()
        u1 = ScalarField.from_values(dom, np.clip(0.5 - x, 0, None))
        rep = cjk_product(u1, ScalarField.zeros(dom), (0.5, 0.5), [0.1, 0.2])
        assert np.all(rep.values == 0.0)

    def test_linear_ramps_match_analytic_product(self):
        dom = build_domain("square", 64, 1.0)
        x, _ = dom.coords()
        u1 = ScalarField.from_values(dom, np.clip(0.5 - x, 0, None))
        u2 = ScalarField.from_values(dom, np.clip(x - 0.5, 0, None))
        radii = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
        rep = cjk_product(u1, u2, (0.5, 0.5), radii)
        # each factor is the half-ball area over r^2: pi/2; product pi^2/4
        assert np.allclose(rep.values, (math.pi / 2) ** 2, rtol=0.12)

    def test_swap_symmetric(self):
        dom = build_domain("square", 48, 1.0)
        x, y = dom.coords()
        u1 = ScalarField.from_values(dom, np.clip(0.5 - x, 0, None) * (1 + y))
        u2 = ScalarField.from_values(dom, np.clip(x - 0.5, 0, None) * (2 - y))
        radii = [0.1, 0.2, 0.3]
        a = cjk_product(u1, u2, (0.5, 0.5), radii)
        b = cjk_product(u2, u1, (0.5, 0.5), radii)
        assert np.allclose(a.values, b.values, rtol=1e-12)

    def test_overlap_rejected(self):
        dom = build_domain("square", 16, 1.0)
        f = ScalarField.from_values(dom, np.ones(dom.mask.shape))
        with pytest.raises(ConstraintViolationError, match="overlap"):
            cjk_product(f, f, (0.5, 0.5), [0.1, 0.2])

    def test_negative_field_rejected(self):
        dom = build_domain("square", 16, 1.0)
        x, _ = dom.coords()
        neg = ScalarField.from_values(dom, -np.clip(0.5 - x, 0, None))
        pos = ScalarField.from_values(dom, np.clip(x - 0.5, 0, None))
        with pytest.raises(ConstraintViolationError):
            cjk_product(neg, pos, (0.5, 0.5), [0.1, 0.2])


class TestNonFiniteInput:
    """A NaN parameter or value used to make a check pass unchecked: every
    comparison with NaN is False, so no gate tripped."""

    @pytest.fixture(scope="class")
    def verify_cases(self):
        # the disk and disk_minus_ball cases of verify's mean_value and acf
        # checks at n = 48
        disk = build_domain("disk", 48, 1.0)
        res = sp.first_dirichlet_eig(disk, tol=1e-10)
        lune = build_domain("disk_minus_ball", 48, 2.0, 1.0)
        lune_res = sp.first_dirichlet_eig(lune, tol=1e-8)
        # each check with the parameter verify passes it
        return {
            "mean_value": (lambda lam: mean_value_check(
                res.field, lam, (0.0, 0.0), [0.15, 0.3, 0.45, 0.6, 0.75, 0.9],
                profile_for_lambda(2, res.lam, 1024),
            ), res.lam),
            "acf": (lambda C: acf_psi_functional(
                lune_res.field, profile_for_lambda(2, lune_res.lam, 1024), (0.0, 0.0),
                list(np.linspace(4 * lune.h, 0.5, 12)), C,
            ), 0.0),
        }

    @pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
    @pytest.mark.parametrize("name, label", [("mean_value", "lambda"), ("acf", "C")])
    def test_non_finite_parameter_rejected(self, verify_cases, name, label, bad):
        # lam = nan skipped the subsolution check, and C = nan gave all-NaN
        # values: each reported max_violation 0.0
        check, good = verify_cases[name]
        rep = check(good)
        assert np.all(np.isfinite(rep.values)) and math.isfinite(rep.max_violation)
        with pytest.raises(ValueError, match=f"{label} must be finite, got {bad}"):
            check(bad)

    @pytest.mark.parametrize(
        "values", [[1.0, math.nan, 0.5], [math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0]])
    def test_non_finite_value_gives_nan_decrease(self, values):
        # the drop 1.0 -> 0.5 around a NaN used to read 0.0; NaN fails
        # verify's worst <= 0.02 gate
        assert math.isnan(_consecutive_decrease(np.array(values)))

    @pytest.mark.parametrize("fun", [gamma_fun, gamma_fun_derivative])
    def test_gamma_nan_argument_rejected(self, fun):
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            fun(3, math.nan)


class TestRadiiValidation:
    @pytest.fixture(scope="class")
    def functionals(self):
        disk = build_domain("disk", 32, 1.0)
        res = sp.first_dirichlet_eig(disk, tol=1e-9)
        prof = profile_for_lambda(2, res.lam, 512)
        lune = build_domain("disk_minus_ball", 48, 2.0, 1.0)
        lune_res = sp.first_dirichlet_eig(lune, tol=1e-8)
        lune_prof = profile_for_lambda(2, lune_res.lam, 512)
        square = build_domain("square", 32, 1.0)
        x, _ = square.coords()
        u1 = ScalarField.from_values(square, np.clip(0.5 - x, 0, None))
        u2 = ScalarField.from_values(square, np.clip(x - 0.5, 0, None))
        return {
            "mean_value": lambda radii: mean_value_check(
                res.field, res.lam, (0.0, 0.0), radii, prof
            ),
            "acf": lambda radii: acf_psi_functional(
                lune_res.field, lune_prof, (0.0, 0.0), radii, 0.0
            ),
            "cjk": lambda radii: cjk_product(u1, u2, (0.5, 0.5), radii),
        }

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("name", ["mean_value", "acf", "cjk"])
    def test_radius_not_finite_and_positive_rejected(self, functionals, name, bad):
        # an empty ball averages to 0 and r = 0 divides by zero: either would
        # make the report vacuous or non-finite instead of failing
        assert np.all(np.isfinite(functionals[name]([0.1, 0.3]).values))
        with pytest.raises(ValueError, match="finite and positive"):
            functionals[name]([bad, 0.3])

    @pytest.mark.parametrize("name", ["mean_value", "acf", "cjk"])
    def test_single_radius_rejected(self, functionals, name):
        # one ball has nothing to compare with: cjk_product used to report
        # max_violation 0.0 for it
        with pytest.raises(ValueError, match="at least two radii"):
            functionals[name]([0.3])


class TestEmptyBall:
    """The largest ball about a point off the lattice, smaller than the
    spacing, holds no node: each functional raises instead of reporting
    all-zero values (and the mean-value check a vacuous max_violation 0)."""

    def test_mean_value(self):
        dom = build_domain("disk", 32, 1.0)
        res = sp.first_dirichlet_eig(dom, tol=1e-10)
        prof = profile_for_lambda(2, res.lam, 512)
        h = dom.h
        with pytest.raises(ValueError, match="holds no lattice node"):
            mean_value_check(res.field, res.lam, (h / 2, h / 2), [0.1 * h, 0.2 * h], prof)

    def test_acf(self, lune_state):
        dom, res, prof = lune_state
        h = dom.h
        with pytest.raises(ValueError, match="holds no lattice node"):
            acf_psi_functional(res.field, prof, (h / 2, h / 2), [0.1 * h, 0.2 * h], 0.0)

    def test_cjk(self):
        dom = build_domain("square", 32, 1.0)
        x, _ = dom.coords()
        u1 = ScalarField.from_values(dom, np.clip(0.5 - x, 0, None))
        u2 = ScalarField.from_values(dom, np.clip(x - 0.5, 0, None))
        c, h = 0.5 + dom.h / 2, dom.h
        with pytest.raises(ValueError, match="holds no lattice node"):
            cjk_product(u1, u2, (c, c), [0.1 * h, 0.2 * h])


# The whole-lattice bodies the three functionals had before they read the
# ball's window: the references the window must match bit for bit.


def whole_lattice_ball_sum(domain, values, center, radii):
    x, y = domain.coords()
    rho = np.hypot(x - center[0], y - center[1])
    h = domain.h
    return np.array([float(values[rho <= r].sum()) * h * h for r in radii])


def whole_lattice_gradient_sq(u):
    gx, gy = discrete_gradient(u)
    return gx.values**2 + gy.values**2


def whole_lattice_mean_value(v, lam, center, radii, profile):
    radii = _sorted_radii(radii)
    if lam > profile.lambda_bar * (1 + 1e-9):
        raise ValueError("lambda exceeds the profile's lambda_bar")
    dom = v.domain
    ci, cj = dom.nearest_node(center)
    if not dom.mask[ci, cj]:
        raise ValueError("center is off the domain mask")
    if np.any(v.values < 0):
        raise ConstraintViolationError("field must be nonnegative")
    x, yy = dom.coords()
    rho = np.hypot(x - center[0], yy - center[1])
    rmax = float(radii[-1])
    if rmax >= 2.0 * profile.R_bar:
        raise ValueError("largest radius reaches the profile's zero")
    inscribed = float(rho[~dom.mask].min()) if (~dom.mask).any() else math.inf
    if rmax > inscribed:
        raise ValueError("radius exceeds the inscribed distance")
    A, flat = coo_laplacian(dom, dom.mask)
    v_in = v.values.ravel()[flat]
    inner = (rho <= rmax - dom.h).ravel()[flat]
    defect = (A @ v_in - lam * v_in)[inner]
    tol = 1e-9 * max(1.0, lam * float(v.values.max()))
    if defect.size and float(defect.max()) > tol:
        raise ConstraintViolationError("field is not a lambda-subsolution")
    averages = _ball_averages(whole_lattice_ball_sum(dom, v.values, center, radii), radii)
    phi_r = np.asarray(profile.phi_at(radii))
    bounds = averages / phi_r
    worst = 0.0
    for i in range(radii.size):
        for j in range(i + 1, radii.size):
            scale = max(abs(bounds[j]), 1e-300)
            worst = max(worst, (averages[i] - bounds[j]) / scale)
    phi_vals = np.ones_like(rho)
    near = rho <= rmax + 1e-12
    phi_vals[near] = np.asarray(profile.phi_at(rho[near]))
    weighted = np.where(near, v.values / phi_vals, 0.0)
    phi_averages = _ball_averages(whole_lattice_ball_sum(dom, weighted, center, radii), radii)
    return MonotonicityReport(radii, averages, max(worst, 0.0), metadata={
        "lambda": lam,
        "lambda_bar": profile.lambda_bar,
        "phi_weighted_averages": phi_averages,
        "phi_bounds": bounds,
    })


def whole_lattice_acf(u, profile, center, radii, C, excluded=None):
    radii = _sorted_radii(radii)
    dom = u.domain
    if np.any(u.values < 0):
        raise ConstraintViolationError("field must be nonnegative")
    if excluded is None:
        excluded = exterior_ball_nodes(dom)
    if np.any(u.values[excluded] != 0.0):
        raise ConstraintViolationError("field does not vanish on the exterior ball")
    x, y = dom.coords()
    rho = np.hypot(x - center[0], y - center[1])
    rmax = float(radii[-1])
    leak = ~dom.mask & ~excluded & (rho < rmax - dom.h)
    if leak.any():
        raise ValueError("center too close to the outer boundary for these radii")
    reach = rmax + 2.5 * dom.h
    if reach >= 2.0 * profile.R_bar:
        raise ValueError("radii reach the zero of phi")
    near = rho <= reach
    phi = np.ones_like(rho)
    phi[near] = np.asarray(profile.phi_at(rho[near]))
    quotient = ScalarField.from_values(dom, u.values * np.where(near, 1.0 / phi, 0.0))
    sums = whole_lattice_ball_sum(dom, phi**2 * whole_lattice_gradient_sq(quotient), center, radii)
    values = _psi_values(sums, radii, C)
    return MonotonicityReport(radii, values, _consecutive_decrease(values), metadata={
        "C": C,
        "variant": "planar (phi^2 weight, Gamma dropped)",
        "gradient_averages": _ball_averages(
            whole_lattice_ball_sum(dom, whole_lattice_gradient_sq(u), center, radii), radii
        ),
        "ball_integrals": sums,
    })


def whole_lattice_cjk(u1, u2, center, radii):
    radii = _sorted_radii(radii)
    if np.any(u1.values < 0) or np.any(u2.values < 0):
        raise ConstraintViolationError("fields must be nonnegative")
    if np.any((u1.values != 0) & (u2.values != 0)):
        raise ConstraintViolationError("overlapping supports")
    dom = u1.domain
    f1, f2 = (
        _ball_averages(whole_lattice_ball_sum(dom, g, center, radii), radii)
        for g in map(whole_lattice_gradient_sq, (u1, u2))
    )
    values = f1 * f2
    return MonotonicityReport(radii, values, _consecutive_decrease(values), metadata={
        "weight_convention": "planar weight 1 (2-D form of the kernel)",
        "factors_1": f1,
        "factors_2": f2,
    })


def report_bits(rep):
    """Every number of a report by repr, which round-trips a float exactly."""
    def bits(v):
        return repr(v.tolist()) if isinstance(v, np.ndarray) else repr(v)

    fields = {"radii": rep.radii, "values": rep.values, "max_violation": rep.max_violation}
    return {k: bits(v) for k, v in {**fields, **rep.metadata}.items()}


@functools.lru_cache(maxsize=None)
def eig_state(shape, n, *params):
    res = sp.first_dirichlet_eig(build_domain(shape, n, *params), tol=1e-10)
    return res, profile_for_lambda(2, res.lam, 1024)


@functools.lru_cache(maxsize=None)
def box_ground_state(n):
    """The unit square's n x n interior nodes as a raw lattice, every node
    in the mask, with its exact discrete ground state sin(pi x) sin(pi y):
    a ball near the lattice edge is clamped there and never leaves the mask."""
    h = 1.0 / (n + 1)
    dom = GridDomain.raw(n, n, h, (h, h))
    x, y = dom.coords()
    f = ScalarField(dom, np.sin(math.pi * x) * np.sin(math.pi * y))
    lam = 8.0 / h**2 * math.sin(math.pi * h / 2) ** 2
    return f, lam, profile_for_lambda(2, lam, 1024)


def window_center(dom, where, point):
    """``point``, the same point moved off the lattice, or a point within
    2h of the lattice's first or last corner node, whose window the lattice
    clamps."""
    h = dom.h
    if where == "origin":
        return point
    if where == "off_lattice":
        return point[0] + 0.37 * h, point[1] + 0.21 * h
    if where == "far_corner":
        return dom.bbox[0] + (dom.nx - 2.4) * h, dom.bbox[1] + (dom.ny - 1.6) * h
    return dom.bbox[0] + 1.4 * h, dom.bbox[1] + 0.6 * h


def assert_window_clamped(dom, where, radii, center):
    box, _ = _ball_box(dom, max(radii), center)
    if where == "edge":
        assert box[0].start == box[1].start == 0
    if where == "far_corner":
        assert (box[0].stop, box[1].stop) == dom.mask.shape


@pytest.mark.parametrize("where", ["origin", "off_lattice", "edge", "far_corner"])
@pytest.mark.parametrize("n", [17, 33, 48, 64, 128])
class TestWindowMatchesWholeLattice:
    def test_mean_value(self, n, where):
        if where in ("edge", "far_corner"):
            f, lam, prof = box_ground_state(n)
            radii = [0.1, 0.2, 0.3]
        else:
            res, prof = eig_state("disk", n, 1.0)
            f, lam, radii = res.field, res.lam, [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
        center = window_center(f.domain, where, (0.0, 0.0))
        assert_window_clamped(f.domain, where, radii, center)
        got = mean_value_check(f, lam, center, radii, prof)
        want = whole_lattice_mean_value(f, lam, center, radii, prof)
        assert report_bits(got) == report_bits(want)

    def test_acf(self, n, where):
        if where in ("edge", "far_corner"):
            f, _, prof = box_ground_state(n)
            excluded = np.zeros(f.domain.mask.shape, dtype=bool)
            radii = [0.1, 0.2, 0.3]
        else:
            res, prof = eig_state("disk_minus_ball", n, 2.0, 1.0)
            f, excluded, radii = res.field, None, [0.15, 0.3, 0.45, 0.6]
        center = window_center(f.domain, where, (0.0, 0.0))
        assert_window_clamped(f.domain, where, radii, center)
        got = acf_psi_functional(f, prof, center, radii, 1.0, excluded)
        want = whole_lattice_acf(f, prof, center, radii, 1.0, excluded)
        assert report_bits(got) == report_bits(want)

    def test_cjk(self, n, where):
        dom = build_domain("square", n, 1.0)
        x, y = dom.coords()
        u1 = ScalarField.from_values(dom, np.clip(0.5 - x, 0, None) * (1 + y))
        u2 = ScalarField.from_values(dom, np.clip(x - 0.5, 0, None) * (2 - y))
        radii = [0.2, 0.4, 0.6] if where in ("edge", "far_corner") else [0.1, 0.2, 0.3, 0.4]
        center = window_center(dom, where, (0.5, 0.5))
        assert_window_clamped(dom, where, radii, center)
        got = cjk_product(u1, u2, center, radii)
        assert report_bits(got) == report_bits(whole_lattice_cjk(u1, u2, center, radii))
