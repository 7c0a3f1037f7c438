"""First Dirichlet eigenpairs of the masked Laplacian and 1-D reference solvers.

The 2-D solver runs shifted inverse power iteration on the 5-point Laplacian
restricted to an allowed node set: shift 0 while the iterate is far away,
then the running Rayleigh quotient (kept strictly below the current
eigenvalue bracket so the shifted operator stays positive definite and CG
applies).  Inner CG solves run with loose tolerances; inexact solves are
fine because any amplification of the ground component helps the outer
iteration.

The 1-D references: first zeros of Bessel J_nu (scipy's jv and brentq in
a classical bracket), the radial ground state of a ball in dimension N in
closed form (scipy's 0F1), and the first Laplace-Beltrami eigenvalue of a
spherical cap through the weighted Sturm-Liouville problem with weight
sin(theta)^(N-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.ndimage import label as nd_label
from scipy.optimize import brentq
from scipy.sparse.linalg import cg
from scipy.special import hyp0f1, jv

from .errors import ConstraintViolationError, ConvergenceError, EmptyRegionError
from .grid import GridDomain, Mask, ScalarField, gradient_magnitude

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


@dataclass(frozen=True, eq=False)
class EigenResult:
    """First eigenpair of the masked Dirichlet Laplacian.

    ``field`` is L2-normalized (h-weighted) and nonnegative; ``residual`` is
    the l2 norm of ``lap(field) + lam * field``.
    """

    lam: float
    field: ScalarField
    residual: float
    iterations: int

    def to_sidecar(self) -> dict:
        return {
            "lambda": self.lam,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def masked_laplacian(domain: GridDomain, allowed: np.ndarray):
    """Sparse SPD matrix of -lap_h on the allowed nodes (zero Dirichlet off).

    Returns (A, flat_indices) where flat_indices maps matrix rows to
    positions in the raveled (nx, ny) lattice.
    """
    idx_flat = np.flatnonzero(allowed.ravel())
    n = idx_flat.size
    lut = -np.ones(allowed.size, dtype=np.intp)
    lut[idx_flat] = np.arange(n)
    h2 = domain.h * domain.h
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, 4.0 / h2)]
    nx, ny = allowed.shape
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        shifted = np.zeros_like(allowed)
        src = allowed[max(0, -di) : nx - max(0, di), max(0, -dj) : ny - max(0, dj)]
        shifted[max(0, di) : nx + min(0, di), max(0, dj) : ny + min(0, dj)] = src
        pair = allowed & shifted
        pi, pj = np.nonzero(pair)
        a = lut[pi * ny + pj]
        b = lut[(pi - di) * ny + (pj - dj)]
        rows.append(a)
        cols.append(b)
        vals.append(np.full(a.size, -1.0 / h2))
    A = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A, idx_flat


def _keep_ground_component(allowed: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Zero everything outside the connected component carrying the maximum.

    Inverse iteration leaves O(1e-12) residue on non-carrying components of a
    disconnected region; the ground state lives on exactly one component.
    """
    labels, nlab = nd_label(allowed, structure=_FOUR_CONN)
    if nlab <= 1:
        return values
    peak = np.unravel_index(np.argmax(values), values.shape)
    keep = labels == labels[peak]
    out = values.copy()
    out[~keep] = 0.0
    return out


def first_dirichlet_eig(
    domain: GridDomain,
    allowed: Mask | None = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
    seed: int = 0,
) -> EigenResult:
    """Smallest eigenpair of the 5-point Laplacian on the allowed nodes.

    The eigenfunction is sign-normalized nonnegative and L2-normalized
    (h-weighted).  A disconnected allowed set yields the global minimum over
    components.  Raises ``ConvergenceError`` with the last residual if the
    iteration cap is hit before ``residual <= tol``.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    nodes = domain.mask if allowed is None else allowed.nodes
    if not nodes.any():
        raise EmptyRegionError("empty region")
    A, idx_flat = masked_laplacian(domain, nodes)
    n = A.shape[0]
    h = domain.h

    rng = np.random.default_rng(seed)
    x = 1.0 + 0.01 * rng.random(n)
    x /= np.linalg.norm(x)

    lam = float(x @ (A @ x))
    res = float(np.linalg.norm(A @ x - lam * x))
    iterations = 0
    while res > tol:
        if iterations >= max_iter:
            raise ConvergenceError("eigensolver did not converge", res)
        iterations += 1
        if res > 1e-3 * max(lam, 1.0):
            op = A
        else:
            # keep the shift strictly below lambda_1 so A - shift*I stays SPD
            shift = lam - max(4.0 * res, 1e-13 * lam)
            op = A - shift * sparse.identity(n, format="csr")
        rtol_inner = min(1e-2, max(1e-10, 0.05 * res / max(lam, 1.0)))
        y, _ = cg(op, x, x0=x, rtol=rtol_inner, maxiter=500)
        ny_ = np.linalg.norm(y)
        if not np.isfinite(ny_) or ny_ == 0.0:
            raise ConvergenceError("inverse iteration produced a null vector", res)
        x = y / ny_
        lam = float(x @ (A @ x))
        res = float(np.linalg.norm(A @ x - lam * x))

    if x.sum() < 0:
        x = -x
    x = np.clip(x, 0.0, None)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ConvergenceError("eigenvector collapsed after sign fix", res)
    x /= nrm

    values = np.zeros(domain.mask.shape)
    values.ravel()[idx_flat] = x
    values = _keep_ground_component(nodes, values)
    values /= np.linalg.norm(values)
    values /= h  # h-weighted L2 normalization in 2-D
    lam = float(x @ (A @ x))
    return EigenResult(lam, ScalarField(domain, values), res, iterations)


# ---------------------------------------------------------------------------
# Bessel zeros and the radial ground state in closed form


def _first_zero(nu: float, tol: float = 1e-12) -> float:
    """First positive zero j_{nu,1} of J_nu to absolute ``tol``, any nu >= 0.

    brentq runs inside the classical bracket
    sqrt(nu (nu + 2)) < j_{nu,1} < sqrt(nu + 1) (sqrt(nu + 2) + 1),
    which holds no other zero of J_nu.
    """
    lo = math.sqrt(nu * (nu + 2.0))
    hi = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
    return brentq(lambda x: jv(nu, x), lo, hi, xtol=tol)


def bessel_first_zero(nu: float, tol: float = 1e-12) -> float:
    """First positive zero of J_nu for nu in [0, 5]."""
    if not (0.0 <= nu <= 5.0):
        raise ValueError(f"order must lie in [0, 5], got {nu}")
    return _first_zero(nu, tol)


def _radial_phi(dim: int, lambda_bar: float, s: np.ndarray | float) -> np.ndarray:
    """phi(s) = 0F1(; N/2; -lambda s^2 / 4) = Gamma(nu+1) (2/ks)^nu J_nu(ks),
    nu = N/2 - 1, k = sqrt(lambda): the regular radial solution, phi(0) = 1."""
    s = np.asarray(s, dtype=float)
    return hyp0f1(dim / 2.0, -0.25 * lambda_bar * s * s)


def _ball_lambda(dim: int, radius: float) -> float:
    """First Dirichlet eigenvalue of the ball of radius 2R in dimension N."""
    return (_first_zero(dim / 2.0 - 1.0) / (2.0 * radius)) ** 2


@dataclass(frozen=True, eq=False)
class RadialGroundState:
    """phi'' + (N-1)/s phi' + lambda phi = 0 with phi(0)=1, phi'(0)=0,
    first zero placed at s = 2R."""

    dim: int
    radius: float
    lambda_bar: float
    s: np.ndarray
    phi: np.ndarray


def radial_ground_state(dim: int, radius: float, samples: int = 1024) -> RadialGroundState:
    """Ground state of the ball of radius 2R in dimension N, phi(0) = 1.

    lambda = (j_{nu,1} / 2R)^2 puts the first zero of phi exactly at s = 2R;
    phi is sampled on ``samples`` equispaced points of [0, 2R] and is
    positive and strictly decreasing on [0, 2R).
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 64:
        raise ValueError(f"need at least 64 samples, got {samples}")
    lam = _ball_lambda(dim, radius)
    s = np.linspace(0.0, 2.0 * radius, samples)
    return RadialGroundState(dim, radius, lam, s, _radial_phi(dim, lam, s))


# ---------------------------------------------------------------------------
# Spherical cap spectrum


@dataclass(frozen=True, eq=False)
class CapSpectrum:
    """First Laplace-Beltrami eigenpair of the cap {y in S^(N-1): y_1 > -r/2}."""

    dim: int
    r: float
    theta_r: float
    lambda1: float
    theta: np.ndarray
    profile: np.ndarray


def cap_eigenvalue(dim: int, r: float, nodes: int = 4096) -> CapSpectrum:
    """Weighted Sturm-Liouville solve for the cap's first eigenvalue.

    -( (sin t)^(N-2) w' )' = lam (sin t)^(N-2) w on (0, theta_r) with
    w'(0) = 0 (ghost node at the axis) and w(theta_r) = 0.  Second-order
    finite differences on a uniform theta grid; returns w with w(0) = 1.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if not (0.0 <= r < 1.0):
        raise ValueError(f"cap parameter must lie in [0, 1), got {r}")
    if nodes < 16:
        raise ValueError(f"need at least 16 theta nodes, got {nodes}")
    theta_r = math.acos(-r / 2.0)
    m = nodes
    dt = theta_r / m
    theta = dt * np.arange(m)          # unknowns at i = 0..m-1; w(theta_r) = 0
    a_half = np.sin(dt * (np.arange(m) + 0.5)) ** (dim - 2)   # a at i+1/2
    weight = np.sin(theta) ** (dim - 2)

    diag = np.empty(m)
    off = np.empty(m - 1)
    bdiag = np.empty(m)
    # axis row via the symmetry ghost node: -(N-1) * 2 (w1 - w0)/dt^2 = lam w0,
    # scaled so the off-diagonal matches row 1 and the pencil stays symmetric
    scale0 = a_half[0] / (2.0 * (dim - 1))
    diag[0] = 2.0 * (dim - 1) / dt**2 * scale0
    off[0] = -2.0 * (dim - 1) / dt**2 * scale0
    bdiag[0] = scale0
    for i in range(1, m):
        diag[i] = (a_half[i - 1] + a_half[i]) / dt**2
        if i < m - 1:
            off[i] = -a_half[i] / dt**2
        bdiag[i] = weight[i]
    # last unknown couples to w(theta_r) = 0 through a_half[m-1]

    d_inv_sqrt = 1.0 / np.sqrt(bdiag)
    tdiag = diag * d_inv_sqrt**2
    toff = off * d_inv_sqrt[:-1] * d_inv_sqrt[1:]
    w_vals, w_vecs = eigh_tridiagonal(tdiag, toff, select="i", select_range=(0, 0))
    lam = float(w_vals[0])
    w = w_vecs[:, 0] * d_inv_sqrt
    if w[0] < 0:
        w = -w
    w = w / w[0]

    theta_full = np.append(theta, theta_r)
    profile = np.append(w, 0.0)
    return CapSpectrum(dim, float(r), theta_r, lam, theta_full, profile)


# ---------------------------------------------------------------------------
# Poincare-type quotient on the exterior-ball geometry


def exterior_ball_nodes(domain: GridDomain) -> np.ndarray:
    """Lattice nodes inside the closed excluded ball of a disk_minus_ball
    domain (the ball of radius r0 centered at (-r0, 0), tangent to the
    origin)."""
    if domain.shape != "disk_minus_ball":
        raise ValueError(
            f"exterior-ball geometry requires a disk_minus_ball domain, got {domain.shape!r}"
        )
    _, r0 = domain.params
    x, y = domain.coords()
    return (x + r0) ** 2 + y**2 <= r0 * r0 * (1 + 1e-12)


def poincare_check(
    f: ScalarField,
    r: float,
    center: tuple[float, float] = (0.0, 0.0),
    excluded: np.ndarray | None = None,
) -> float:
    """Quotient ((1/r) * boundary L2 + (1/r^2) * interior L2) / Dirichlet term
    over the ball B_r(center), for fields vanishing on the excluded ball.

    The boundary integral is the outermost node ring scaled by h.
    """
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    dom = f.domain
    if excluded is None:
        excluded = exterior_ball_nodes(dom)
    x, y = dom.coords()
    rho = np.hypot(x - center[0], y - center[1])
    ball = rho <= r
    if np.any(f.values[ball & excluded] != 0.0):
        raise ConstraintViolationError("constraint violated")
    if not np.any(f.values[ball] != 0.0):
        raise ValueError("field vanishes identically on the ball")
    h = dom.h
    ring = ball & (rho > r - h)
    g = gradient_magnitude(f)
    boundary = float((f.values[ring] ** 2).sum()) * h
    interior = float((f.values[ball] ** 2).sum()) * h * h
    grad = float((g.values[ball] ** 2).sum()) * h * h
    if grad == 0.0:
        return math.inf
    return (boundary / r + interior / (r * r)) / grad
