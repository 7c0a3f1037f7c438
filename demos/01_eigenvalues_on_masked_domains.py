"""First Dirichlet eigenvalues on masked lattice domains.

Solves the ground state on a few reference shapes and compares against the
closed-form targets: 2*pi^2 for the unit square, the squared first Bessel
zero for the unit disk.  The disk's staircase boundary gives an O(h) error,
so a first-order Richardson step between two resolutions recovers the
continuum value; the axis-aligned square is O(h^2) and extrapolates at
second order.
"""

import math

import segpart as sp

print("== unit square ==")
lams = {}
for n in (64, 128):
    dom = sp.build_domain("square", n, 1.0)
    res = sp.first_dirichlet_eig(dom, tol=1e-9)
    lams[n] = res.lam
    print(f"  n={n:4d}  lambda_1 = {res.lam:.6f}   "
          f"(residual {res.residual:.1e}, {res.iterations} LU solves)")
extrap = (4 * lams[128] - lams[64]) / 3
print(f"  Richardson (order 2): {extrap:.8f}   target 2*pi^2 = {2 * math.pi ** 2:.8f}")

print("\n== unit disk ==")
j0 = sp.bessel_first_zero(0.0)
lams = {}
for n in (64, 128):
    dom = sp.build_domain("disk", n, 1.0)
    res = sp.first_dirichlet_eig(dom, tol=1e-9)
    lams[n] = res.lam
    print(f"  n={n:4d}  lambda_1 = {res.lam:.6f}")
extrap = 2 * lams[128] - lams[64]
print(f"  Richardson (order 1): {extrap:.8f}   target j_0,1^2 = {j0 * j0:.8f}")

print("\n== L-shaped domain ==")
dom = sp.build_domain("l_shape", 128, 1.0)
res = sp.first_dirichlet_eig(dom, tol=1e-9)
print(f"  n=128  lambda_1 = {res.lam:.6f}   (reentrant corner, no closed form)")

print("\n== eigenvalue monotonicity under domain inclusion ==")
dom = sp.build_domain("square", 64, 1.0)
x, y = dom.coords()
half = sp.Mask(dom, dom.mask & (x < 0.5))
lam_half = sp.first_dirichlet_eig(dom, half, tol=1e-8).lam
print(f"  lambda_1(left half) = {lam_half:.4f}  >=  lambda_1(square) = "
      f"{sp.first_dirichlet_eig(dom, tol=1e-8).lam:.4f}")
