"""Monotonicity machinery for eigenfunctions near free boundaries.

Given a reference eigenvalue lambda_bar, phi denotes the radial ground state
of the ball B_{2R} normalized to phi(0) = 1.  From it we build

    Gamma(r) = (N-2) * int_r^{3R/2} s^(1-N) / phi(s)^2 ds,
    psi(r)   = r^(N-2) * phi(r)^2 * Gamma(r),   psi(0) = 1 by continuity,

and the exponentially corrected average

    Psi(r) = e^(Cr) / r^2 * int_{B_r} phi^2 Gamma |grad(u/phi)|^2,

which is nondecreasing in r for nonnegative eigen-subsolutions vanishing on
an exterior tangent ball.  On planar grids (N = 2) the Gamma weight
degenerates and Psi drops it, keeping only phi^2; the same convention gives
the two-phase product its weight-1 form.  The mean-value comparison
(ball averages of a subsolution controlled by phi(R)), the Poincare-type
quotient on the exterior-ball geometry and the exponent function
gamma(t) = sqrt(((N-2)/2)^2 + t) - (N-2)/2 live here as well.

Every ball integral is nodal quadrature with weight 1 on the window of the
functional's largest ball (``grid._ball_box``, as in the Poincare check),
where it takes all its gradients in one stacked stencil pass and
``ball_sum`` integrates each field over all its radii.  The window keeps
the ball's nodes in raster order, so every sum has the whole lattice's bits.
A largest ball that holds no lattice node raises ValueError.  The
mean-value defect is the 5-point stencil on the zero-padded window.

Gamma in closed form: with k = sqrt(lambda_bar) and nu = N/2 - 1,
phi(s) = Gamma(nu+1) (2/ks)^nu J_nu(ks), so the integrand is
k^(N-2) / (4^nu Gamma(nu+1)^2) * 1 / (s J_nu(ks)^2).  The Wronskian
W(J_nu, Y_nu)(x) = 2/(pi x) (DLMF 10.5.2) makes 1/(x J_nu(x)^2) the exact
derivative of (pi/2) Y_nu(x)/J_nu(x), hence

    Gamma(r) = (N-2) (pi/2) k^(N-2) / (4^nu Gamma(nu+1)^2) * [Y_nu/J_nu]
               taken from x = kr to x = 3kR/2,

with no quadrature; Gamma(3R/2) = 0 and psi(0) = 1 hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolationError
from .eigensolve import _first_zero, _radial_phi
from .grid import GridDomain, ScalarField, _ball_box, _in_excluded_ball
from .grid import _padded, _stencil_gradient, _stencil_laplacian


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """phi, Gamma_phi and psi sampled on [0, 3R/2].

    For dim == 2 the Gamma/psi legs are not defined (the functional drops
    them) and are stored as None.
    """

    dim: int
    R_bar: float
    lambda_bar: float
    s: np.ndarray
    phi: np.ndarray
    gamma_phi: np.ndarray | None
    psi: np.ndarray | None

    def phi_at(self, rho: np.ndarray | float) -> np.ndarray | float:
        rho_arr = np.asarray(rho, dtype=float)
        if np.any(rho_arr > 2.0 * self.R_bar * (1 + 1e-12)):
            raise ValueError("phi sampled beyond its ball of definition")
        # closed form, so radii past the sampled grid's 3R/2 need no table
        return _radial_phi(self.dim, self.lambda_bar, rho_arr)


@dataclass(eq=False)
class MonotonicityReport:
    """Sampled functional values over increasing radii.

    ``max_violation`` is the worst relative failure of the report's claimed
    comparison: for monotone functionals the largest relative decrease
    between consecutive radii, for the mean-value check the worst excess of
    a small-ball average over its phi-corrected large-ball bound.
    """

    radii: np.ndarray
    values: np.ndarray
    max_violation: float
    metadata: dict = field(default_factory=dict)


def _consecutive_decrease(values: np.ndarray) -> float:
    """Largest relative decrease between consecutive values, 0 if none.

    NaN if a value is not finite: a NaN compares False with everything, so
    max() would drop the decrease it stands in, and NaN fails every ``<=``
    gate.
    """
    if not np.all(np.isfinite(values)):
        return math.nan
    worst = 0.0
    for a, b in zip(values[:-1], values[1:]):
        scale = max(abs(a), 1e-300)
        worst = max(worst, (a - b) / scale)
    return max(worst, 0.0)


def build_radial_profile(dim: int, R_bar: float, samples: int = 1024) -> RadialProfile:
    """Profile of the ball B_{2R}: lambda_bar = (j_{nu,1} / 2R)^2."""
    if not (math.isfinite(R_bar) and R_bar > 0):
        raise ValueError(f"R_bar must be finite and positive, got {R_bar}")
    return _sample_profile(dim, R_bar, (_phi_zero(dim) / (2.0 * R_bar)) ** 2, samples)


def profile_for_lambda(dim: int, lambda_bar: float, samples: int = 1024) -> RadialProfile:
    """Profile whose reference ball B_{2R} has first eigenvalue lambda_bar."""
    if not (math.isfinite(lambda_bar) and lambda_bar > 0):
        raise ValueError(f"lambda_bar must be finite and positive, got {lambda_bar}")
    R_bar = _phi_zero(dim) / (2.0 * math.sqrt(lambda_bar))
    return _sample_profile(dim, R_bar, lambda_bar, samples)


def _phi_zero(dim: int) -> float:
    """j_{nu,1}, nu = N/2 - 1: phi's first zero sits at s = j_{nu,1} / sqrt(lambda_bar)."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    return _first_zero(dim / 2.0 - 1.0)


def _sample_profile(dim: int, R_bar: float, lam: float, samples: int) -> RadialProfile:
    """phi, and for dim >= 3 Gamma_phi and psi, on ``samples`` points of [0, 3R/2].

    Gamma is the Wronskian closed form of the module docstring; at s = 0 it
    is +inf and psi takes its continuity limit 1.
    """
    from scipy.special import jv, yv  # at first use, as in _radial_phi

    if samples < 256:
        raise ValueError(f"need at least 256 samples, got {samples}")
    s = np.linspace(0.0, 1.5 * R_bar, samples)
    phi = _radial_phi(dim, lam, s)
    if dim == 2:
        return RadialProfile(dim, R_bar, lam, s, phi, None, None)
    nu, k = dim / 2.0 - 1.0, math.sqrt(lam)
    x = k * s[1:]
    ratio = yv(nu, x) / jv(nu, x)
    scale = (dim - 2) * (math.pi / 2.0) * k ** (dim - 2) / (4.0**nu * math.gamma(nu + 1.0) ** 2)
    gamma_phi = np.empty_like(s)
    gamma_phi[0] = np.inf
    gamma_phi[1:] = scale * (ratio[-1] - ratio)
    psi = np.empty_like(s)
    psi[0] = 1.0
    psi[1:] = s[1:] ** (dim - 2) * phi[1:] ** 2 * gamma_phi[1:]
    return RadialProfile(dim, R_bar, lam, s, phi, gamma_phi, psi)


def gamma_fun(dim: int, t: float) -> float:
    """Exponent function sqrt(((N-2)/2)^2 + t) - (N-2)/2; gamma(N-1) = 1."""
    if not t >= 0:
        raise ValueError(f"argument must be nonnegative, got {t}")
    half = (dim - 2) / 2.0
    return math.sqrt(half * half + t) - half


def gamma_fun_derivative(dim: int, t: float) -> float:
    """gamma'(t) = 1 / (2 sqrt(((N-2)/2)^2 + t)); +inf at N = 2, t = 0."""
    if not t >= 0:
        raise ValueError(f"argument must be nonnegative, got {t}")
    half = (dim - 2) / 2.0
    root = math.sqrt(half * half + t)
    return math.inf if root == 0.0 else 0.5 / root


# ---------------------------------------------------------------------------
# ball quadrature


def ball_sum(values: np.ndarray, rho: np.ndarray, radii, h: float) -> np.ndarray:
    """Integrals of ``values`` over the balls B_r(center), one per radius.

    ``values`` and ``rho`` = |x - center| are read on one window that holds
    every ball (``grid._ball_box`` at the largest radius).  Nodal quadrature
    with weight 1 (every planar functional's weight): h^2 times the sum
    over the nodes with rho <= r.
    """
    return np.array([float(values[rho <= r].sum()) * h * h for r in radii])


def _sorted_radii(radii) -> np.ndarray:
    """The radii in increasing order; ValueError unless each is finite and
    positive (an empty ball would average to 0 or divide by r = 0) and there
    are at least two (every functional compares balls)."""
    out = np.asarray(sorted(float(r) for r in radii))
    if not np.all(np.isfinite(out) & (out > 0)):
        raise ValueError(f"radii must be finite and positive, got {out.tolist()}")
    if out.size < 2:
        raise ValueError("need at least two radii")
    return out


def _ball_averages(sums: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """r^-2 int_{B_r}, per radius from its ball integral.

    Scalar arithmetic per radius, as in ``_psi_values``: numpy's array
    ``radii**2`` multiplies, the scalar ``r**2`` calls pow, and the two can
    differ in the last bit.
    """
    return np.array([s / r**2 for r, s in zip(radii, sums)])


def _psi_values(sums: np.ndarray, radii: np.ndarray, C: float) -> np.ndarray:
    """Psi(r) = e^(Cr) r^-2 int_{B_r} phi^2 |grad(u/phi)|^2, per radius from
    the C-free ball integrals."""
    return np.array([math.exp(C * r) / r**2 * s for r, s in zip(radii, sums)])


def mean_value_check(
    v: ScalarField,
    lam: float,
    center: tuple[float, float],
    radii,
    profile: RadialProfile,
) -> MonotonicityReport:
    """Normalized ball averages of a nonnegative eigen-subsolution.

    values[i] = (1/r_i^2) * int_{B_{r_i}} v.  The claimed comparison is
    values[i] <= (1/(phi(r_j) r_j^2)) int_{B_{r_j}} v for every pair
    r_i < r_j; ``max_violation`` is its worst relative failure.  The report
    metadata carries the phi-weighted averages (1/r^2) int v/phi, which are
    nondecreasing in exact arithmetic.
    """
    radii = _sorted_radii(radii)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam > profile.lambda_bar * (1 + 1e-9):
        raise ValueError(
            f"lambda {lam} exceeds the profile's lambda_bar {profile.lambda_bar}"
        )
    dom = v.domain
    ci, cj = dom.nearest_node(center)
    if not dom.mask[ci, cj]:
        raise ValueError("center is off the domain mask")
    if np.any(v.values < 0):
        raise ConstraintViolationError("field must be nonnegative")
    rmax = float(radii[-1])
    box, rho = _ball_box(dom, rmax, center)
    if rmax >= 2.0 * profile.R_bar:
        raise ValueError("largest radius reaches the profile's zero")
    # an off-mask node nearer than rmax, which decides this, is in the window
    mask, vals = dom.mask[box], v.values[box]
    inscribed = float(rho[~mask].min()) if (~mask).any() else math.inf
    if rmax > inscribed:
        raise ValueError(
            f"radius {rmax} exceeds the inscribed distance {inscribed:.6g}"
        )

    # nodewise subsolution check on the balls but their outermost ring, where
    # the stencil leaves the region: -lap_h v on the window (v is zero off
    # the mask)
    lap = _stencil_laplacian(_padded(vals), dom.h)
    defect = (lap - lam * vals)[mask & (rho <= rmax - dom.h)]
    tol = 1e-9 * max(1.0, lam * float(v.values.max()))
    if defect.size and float(defect.max()) > tol:
        raise ConstraintViolationError(
            f"field is not a lambda-subsolution on the sampled balls "
            f"(worst defect {float(defect.max()):.3e} > tol {tol:.3e})"
        )

    averages = _ball_averages(ball_sum(vals, rho, radii, dom.h), radii)
    phi_r = np.asarray(profile.phi_at(radii))
    bounds = averages / phi_r
    worst = 0.0
    for i in range(radii.size):
        for j in range(i + 1, radii.size):
            scale = max(abs(bounds[j]), 1e-300)
            worst = max(worst, (averages[i] - bounds[j]) / scale)
    ball = rho <= rmax
    weighted = np.zeros_like(vals)
    weighted[ball] = vals[ball] / np.asarray(profile.phi_at(rho[ball]))
    phi_averages = _ball_averages(ball_sum(weighted, rho, radii, dom.h), radii)
    return MonotonicityReport(
        radii,
        averages,
        max(worst, 0.0),
        metadata={
            "lambda": lam,
            "lambda_bar": profile.lambda_bar,
            "phi_weighted_averages": phi_averages,
            "phi_bounds": bounds,
        },
    )


def acf_psi_functional(
    u: ScalarField,
    profile: RadialProfile,
    center: tuple[float, float],
    radii,
    C: float,
    excluded: np.ndarray | None = None,
) -> MonotonicityReport:
    """One-phase monotonicity functional over balls at an exterior-ball point.

    Planar grids use the two-dimensional form
    Psi(r) = e^(Cr) r^-2 int_{B_r} phi^2 |grad(u/phi)|^2 (the Gamma weight
    degenerates in 2-D).  ``max_violation`` is the largest relative decrease
    between consecutive radii; metadata carries the plain gradient averages
    r^-2 int |grad u|^2 for the two-sided comparison with Psi, and the
    C-free ball integrals int_{B_r} phi^2 |grad(u/phi)|^2 (``ball_integrals``)
    that give Psi for any other C.
    """
    radii = _sorted_radii(radii)
    if not math.isfinite(C):
        raise ValueError(f"C must be finite, got {C}")
    dom = u.domain
    if np.any(u.values < 0):
        raise ConstraintViolationError("field must be nonnegative")
    if excluded is None:
        excluded = exterior_ball_nodes(dom)
    if np.any(u.values[excluded] != 0.0):
        raise ConstraintViolationError("field does not vanish on the exterior ball")
    rmax, h = float(radii[-1]), dom.h
    box, rho = _ball_box(dom, rmax, center)
    mask, vals = dom.mask[box], u.values[box]
    # off-mask nodes inside the working ball must belong to the exterior
    # ball; anything else means the ball leaks through the outer boundary
    leak = ~mask & ~excluded[box] & (rho < rmax - h)
    if leak.any():
        raise ValueError("center too close to the outer boundary for these radii")

    # phi on the working ball, which reaches past rmax by the gradient stencil
    reach = rmax + 2.5 * h
    if reach >= 2.0 * profile.R_bar:
        raise ValueError("radii reach the zero of phi; shrink them below R_bar")
    near = rho <= reach
    phi = np.ones_like(rho)
    phi[near] = np.asarray(profile.phi_at(rho[near]))
    # the stencil reads no off-mask value, so u/phi needs no zeroing there
    quotient = vals * np.where(near, 1.0 / phi, 0.0)
    gx, gy = _stencil_gradient(np.stack([quotient, vals]), mask, h)
    grad_sq = gx**2 + gy**2
    sums = ball_sum(phi**2 * grad_sq[0], rho, radii, h)
    values = _psi_values(sums, radii, C)
    return MonotonicityReport(
        radii,
        values,
        _consecutive_decrease(values),
        metadata={
            "C": C,
            "variant": "planar (phi^2 weight, Gamma dropped)",
            "gradient_averages": _ball_averages(ball_sum(grad_sq[1], rho, radii, h), radii),
            "ball_integrals": sums,
        },
    )


def cjk_product(
    u1: ScalarField,
    u2: ScalarField,
    center: tuple[float, float],
    radii,
) -> MonotonicityReport:
    """Two-phase product of gradient ball averages for segregated fields.

    Each factor is r^-2 int_{B_r} |grad u_i|^2; the planar convention takes
    weight 1 (the |x|^(2-N) kernel is trivial for N = 2), which is recorded
    in the metadata.
    """
    radii = _sorted_radii(radii)
    if np.any(u1.values < 0) or np.any(u2.values < 0):
        raise ConstraintViolationError("fields must be nonnegative")
    if np.any((u1.values != 0) & (u2.values != 0)):
        raise ConstraintViolationError("overlapping supports")
    dom = u1.domain
    box, rho = _ball_box(dom, float(radii[-1]), center)
    stack = np.stack([u1.values[box], u2.values[box]])
    gx, gy = _stencil_gradient(stack, dom.mask[box], dom.h)
    f1, f2 = (_ball_averages(ball_sum(g, rho, radii, dom.h), radii) for g in gx**2 + gy**2)
    values = f1 * f2
    return MonotonicityReport(
        radii,
        values,
        _consecutive_decrease(values),
        metadata={
            "weight_convention": "planar weight 1 (2-D form of the kernel)",
            "factors_1": f1,
            "factors_2": f2,
        },
    )


# ---------------------------------------------------------------------------
# the exterior-ball geometry and its Poincare-type quotient


def exterior_ball_nodes(domain: GridDomain) -> np.ndarray:
    """Lattice nodes inside the closed excluded ball of a disk_minus_ball
    domain (the ball of radius r0 centered at (-r0, 0), tangent to the
    origin)."""
    if domain.shape != "disk_minus_ball":
        raise ValueError(
            f"exterior-ball geometry requires a disk_minus_ball domain, got {domain.shape!r}"
        )
    _, r0 = domain.params
    return _in_excluded_ball(*domain.coords(), r0)


def _poincare_quotients(
    domain: GridDomain,
    values: np.ndarray,
    r: float,
    box: tuple[slice, slice],
    rho: np.ndarray,
    excluded: np.ndarray,
) -> np.ndarray:
    """The Poincare quotient over B_r of each field of a ``(k, bx, by)``
    stack, the fields' values on the ball's window (``box, rho`` from
    ``grid._ball_box``), as an array of k floats.  Each field vanishes off
    the domain mask; ``excluded`` spans the whole lattice.

    The crop is exact: the gradient at a ball node reads only its four
    neighbours, which lie in the box or past the lattice edge.  Each field's
    sums are taken on its own row, so every quotient has the bits of a
    one-field stack.
    """
    mask, ball = domain.mask[box], rho <= r
    if np.any(values[:, ball & excluded[box]] != 0.0):
        raise ConstraintViolationError("constraint violated")
    on_ball = values[:, ball]
    if not np.all(np.any(on_ball != 0.0, axis=1)):
        raise ValueError("field vanishes identically on the ball")
    h = domain.h
    ring = ball & (rho > r - h)
    gx, gy = _stencil_gradient(values, mask, h)
    grad_on_ball = np.hypot(gx, gy)[:, ball]
    out = np.empty(len(values))
    for k, rows in enumerate(zip(values[:, ring], on_ball, grad_on_ball)):
        boundary, interior, grad = (float((row**2).sum()) for row in rows)
        out[k] = math.inf if grad == 0.0 else (
            (boundary * h / r + interior * h * h / (r * r)) / (grad * h * h)
        )
    return out
