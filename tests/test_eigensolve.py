import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.ndimage
import scipy.optimize
import scipy.sparse
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.csgraph import connected_components

import segpart
from segpart import eigensolve
from segpart.errors import ConstraintViolationError, ConvergenceError, EmptyRegionError
from segpart.eigensolve import (
    _cap_pencil,
    _dot,
    _factor,
    _norm,
    bessel_first_zero,
    cap_eigenvalue,
    first_dirichlet_eig,
    masked_laplacian,
    poincare_check,
    radial_ground_state,
)
from segpart.grid import (
    GridDomain,
    Mask,
    ScalarField,
    _ball_box,
    build_domain,
    dirichlet_energy,
)
from segpart.monotonicity import _poincare_quotients, exterior_ball_nodes


def tridiag_unit_interval_eigmin(n: int) -> float:
    """Oracle: smallest eigenvalue of the 1-D Dirichlet Laplacian on (0,1)
    with n cells (n-1 interior nodes)."""
    h = 1.0 / n
    d = np.full(n - 1, 2.0 / h**2)
    e = np.full(n - 2, -1.0 / h**2)
    w = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[0]
    return float(w[0])


def box_oracle(h: float, mi: int, mj: int) -> float:
    """Closed-form lambda_1 of the 5-point Laplacian on an mi x mj node box:
    the tensor product of two 1-D Dirichlet chains."""
    return 4.0 / h**2 * (
        math.sin(math.pi / (2 * (mi + 1))) ** 2 + math.sin(math.pi / (2 * (mj + 1))) ** 2
    )


class TestMaskedEig:
    def test_square_matches_tensor_oracle(self):
        n = 64
        dom = build_domain("square", n, 1.0)
        res = first_dirichlet_eig(dom, tol=1e-10)
        expected = 2.0 * tridiag_unit_interval_eigmin(n)
        assert res.lam == pytest.approx(expected, rel=1e-9)
        assert res.residual <= 1e-10

    def test_single_node_exact(self):
        dom = build_domain("square", 4, 1.0)
        nodes = np.zeros(dom.mask.shape, dtype=bool)
        nodes[2, 2] = True
        res = first_dirichlet_eig(dom, Mask(dom, nodes))
        assert res.lam == 4.0 / dom.h**2
        assert res.residual == 0.0
        assert res.iterations == 0
        assert res.field.values[2, 2] == 1.0 / dom.h
        assert np.count_nonzero(res.field.values) == 1

    def test_field_normalized_and_nonnegative(self, square_eig_128):
        dom, res = square_eig_128
        l2 = math.sqrt(float((res.field.values**2).sum())) * dom.h
        assert abs(l2 - 1.0) <= 1e-10
        assert np.all(res.field.values >= 0.0)

    def test_rayleigh_consistency(self, square_eig_128):
        dom, res = square_eig_128
        quad = dirichlet_energy(res.field)  # field is L2-normalized
        assert abs(quad - res.lam) <= 10.0 * max(res.residual, 1e-14)

    def test_domain_monotonicity(self):
        rng = np.random.default_rng(21)
        dom = build_domain("square", 24, 1.0)
        for _ in range(5):
            small = dom.mask & (rng.random(dom.mask.shape) < 0.5)
            if not small.any():
                continue
            lam_small = first_dirichlet_eig(dom, Mask(dom, small), tol=1e-7).lam
            lam_big = first_dirichlet_eig(dom, tol=1e-7).lam
            assert lam_small >= lam_big - 1e-6

    def test_disconnected_returns_global_minimum(self):
        dom = build_domain("rectangle", 16, 2.0, 1.0)
        x, _ = dom.coords()
        left = dom.mask & (x < 0.8)
        right = dom.mask & (x > 1.4)  # narrower piece, higher eigenvalue
        both = left | right
        lam_both = first_dirichlet_eig(dom, Mask(dom, both), tol=1e-8)
        lam_left = first_dirichlet_eig(dom, Mask(dom, left), tol=1e-8)
        lam_right = first_dirichlet_eig(dom, Mask(dom, right), tol=1e-8)
        assert lam_both.lam == pytest.approx(min(lam_left.lam, lam_right.lam), rel=1e-6)
        # the eigenfunction lives on the carrying component only
        assert np.all(lam_both.field.values[right] == 0.0) or np.all(
            lam_both.field.values[left] == 0.0
        )

    def test_exact_tie_returns_lowest_label(self):
        # mirror-image components carry bit-identical blocks and start vectors;
        # the left one comes first in raster order, so it has the lower label
        dom = build_domain("rectangle", 16, 2.0, 1.0)
        x, _ = dom.coords()
        left = dom.mask & (x < 0.8)
        right = dom.mask & (x > 1.2)
        a = first_dirichlet_eig(dom, Mask(dom, left | right), tol=1e-8)
        solo = first_dirichlet_eig(dom, Mask(dom, left), tol=1e-8)
        assert np.all(a.field.values[left] > 0.0)
        assert np.all(a.field.values[~left] == 0.0)
        assert abs(a.lam - solo.lam) <= 1e-12
        b = first_dirichlet_eig(dom, Mask(dom, left | right), tol=1e-8)
        assert a.lam == b.lam and a.residual == b.residual
        assert a.iterations == b.iterations
        assert np.array_equal(a.field.values, b.field.values)

    def test_components_that_cannot_win_are_not_solved(self, monkeypatch):
        # single nodes have lambda 4/h^2, their box bound exactly; the square
        # block is far below it, so only the square is ever solved
        dom = build_domain("square", 16, 1.0)
        nodes = np.zeros(dom.mask.shape, dtype=bool)
        nodes[2:9, 2:9] = True
        nodes[12, 12] = nodes[14, 3] = nodes[3, 14] = True
        calls = []
        real = eigensolve._block_ground_state
        monkeypatch.setattr(
            eigensolve, "_block_ground_state",
            lambda block, *args: calls.append(block.shape[0]) or real(block, *args),
        )
        res = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)
        assert calls == [49]
        assert res.lam == pytest.approx(2 * 4 / dom.h**2 * math.sin(math.pi / 16) ** 2)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_skipping_matches_solving_every_component(self, seed):
        # many components on a sparse random mask: the result is bit for bit
        # the best of the components solved one at a time, and each
        # component's bounding-box bound stays below its own lambda
        rng = np.random.default_rng(seed)
        dom = build_domain("square", 20, 1.0)
        nodes = dom.mask & (rng.random(dom.mask.shape) < 0.55)
        labels, nlab = scipy.ndimage.label(nodes, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        solo = []
        for c, box in enumerate(scipy.ndimage.find_objects(labels)):
            r = first_dirichlet_eig(dom, Mask(dom, labels == c + 1), tol=1e-9)
            floor = 4 / dom.h**2 * sum(
                math.sin(math.pi / (2 * (sl.stop - sl.start + 1))) ** 2 for sl in box
            )
            assert floor <= r.lam * (1 + 1e-12)
            solo.append(r)
        best = min(solo, key=lambda r: r.lam)
        res = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)
        assert nlab > 5
        assert res.lam == best.lam and res.iterations == best.iterations
        assert np.array_equal(res.field.values, best.field.values)

    def test_factor_fill_stays_low(self):
        # the fill sets the factor's memory; COLAMD gives about 1.19e6 here
        dom = build_domain("square", 128, 1.0)
        A, _ = masked_laplacian(dom, dom.mask)
        lu = _factor(A)
        assert lu.L.nnz + lu.U.nnz <= 7.0e5

    def test_scaling_law_richardson(self):
        lams = {}
        for n in (32, 64, 128):
            dom = build_domain("disk", n, 1.0)
            lams[n] = first_dirichlet_eig(dom, tol=1e-9).lam
        rich = 2.0 * lams[64] - lams[32]  # first-order model for the staircase
        err_est = abs(lams[64] - lams[32])
        assert abs(rich - lams[128]) <= err_est

    def test_empty_region_raises(self):
        dom = build_domain("square", 8, 1.0)
        with pytest.raises(EmptyRegionError, match="empty region"):
            first_dirichlet_eig(dom, Mask(dom, np.zeros(dom.mask.shape, dtype=bool)))

    def test_nonconvergence_carries_residual(self):
        dom = build_domain("square", 32, 1.0)
        with pytest.raises(ConvergenceError) as err:
            first_dirichlet_eig(dom, tol=1e-14, max_iter=1)
        assert err.value.residual > 0

    def test_determinism(self):
        dom = build_domain("l_shape", 24, 1.0)
        a = first_dirichlet_eig(dom, tol=1e-9, seed=5)
        b = first_dirichlet_eig(dom, tol=1e-9, seed=5)
        assert a.lam == b.lam
        assert np.array_equal(a.field.values, b.field.values)

    def test_seed_has_no_effect(self):
        # the l_shape does not fill its box, so the solve iterates
        dom = build_domain("l_shape", 24, 1.0)
        a = first_dirichlet_eig(dom, tol=1e-9, seed=0)
        b = first_dirichlet_eig(dom, tol=1e-9, seed=5)
        assert a.iterations > 0
        assert (a.lam, a.residual, a.iterations) == (b.lam, b.residual, b.iterations)
        assert np.array_equal(a.field.values, b.field.values)

    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("shape, params", [("square", (1.0,)), ("rectangle", (2.0, 1.0))])
    def test_full_box_starts_at_its_ground_state(self, shape, params, n):
        # the box start is the exact eigenvector: no factor and no solve
        dom = build_domain(shape, n, *params)
        res = first_dirichlet_eig(dom, tol=1e-9)
        assert res.iterations == 0
        assert res.residual <= 1e-9
        expected = box_oracle(dom.h, dom.nx - 2, dom.ny - 2)
        assert res.lam == pytest.approx(expected, rel=1e-13)

    def box_in_disk(self, dom, i0, j0):
        nodes = np.zeros(dom.mask.shape, dtype=bool)
        nodes[i0 : i0 + 12, j0 : j0 + 7] = True
        assert not np.any(nodes & ~dom.mask)
        return Mask(dom, nodes)

    def test_box_allowed_set_in_a_disk_needs_no_solve(self):
        dom = build_domain("disk", 48, 1.0)
        res = first_dirichlet_eig(dom, self.box_in_disk(dom, 14, 20), tol=1e-9)
        assert res.iterations == 0
        assert res.residual <= 1e-9
        assert res.lam == pytest.approx(box_oracle(dom.h, 12, 7), rel=1e-13)

    def test_translated_boxes_give_translated_fields(self):
        dom = build_domain("disk", 48, 1.0)
        a = first_dirichlet_eig(dom, self.box_in_disk(dom, 14, 20), tol=1e-9)
        b = first_dirichlet_eig(dom, self.box_in_disk(dom, 19, 17), tol=1e-9)
        assert a.lam == b.lam and a.residual == b.residual
        assert np.array_equal(a.field.values[14:26, 20:27], b.field.values[19:31, 17:24])
        assert a.field.values.sum() == b.field.values.sum()

    @pytest.mark.parametrize("size", [1, 100, 20_000])
    def test_reductions_match_blas(self, size):
        # summation order differs from BLAS; positive terms keep it to a few ulps
        rng = np.random.default_rng(size)
        a, b = rng.random(size), rng.random(size)
        assert _dot(a, b) == pytest.approx(float(a @ b), rel=1e-13)
        assert _norm(a) == pytest.approx(float(np.linalg.norm(a)), rel=1e-13)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
    def test_rejects_tolerance_not_finite_and_positive(self, tol):
        # res > nan is False, so a NaN tolerance would return the start vector
        dom = build_domain("square", 16, 1.0)
        with pytest.raises(ValueError, match="tolerance"):
            first_dirichlet_eig(dom, tol=tol)

    def test_independent_of_blas_thread_count(self):
        # the n = 128 square has 16k nodes, above the size at which OpenBLAS
        # splits a dot product over threads
        script = (
            "import hashlib, json\n"
            "from segpart.eigensolve import first_dirichlet_eig\n"
            "from segpart.grid import build_domain\n"
            "res = first_dirichlet_eig(build_domain('square', 128, 1.0), tol=1e-9)\n"
            "print(json.dumps([res.lam.hex(), res.iterations,\n"
            "                  hashlib.sha256(res.field.values.tobytes()).hexdigest()]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(segpart.__file__)))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True,
            ).stdout
            runs.append(json.loads(out.splitlines()[-1]))
        assert runs[0] == runs[1]

    def test_shift_cuts_the_solve_count(self, square_eig_128, disk_eig_128):
        # zero-shift inverse iteration from a random start takes 16 and 15
        # solves at tol 1e-9; the square starts at its ground state
        assert square_eig_128[1].iterations <= 6
        assert disk_eig_128[1].iterations <= 8

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 20),
        density=st.floats(0.2, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # a find: a 153-node component with lambda_1 = 258.91, lambda_2 = 259.38
    # and shift 22.07 missed tol 1e-9 after 10000 plain solves
    @example(n=18, density=0.625, seed=188093)
    def test_matches_dense_eigvalsh_above_the_shift(self, n, density, seed):
        dom = build_domain("square", n, 1.0)
        nodes = dom.mask & (np.random.default_rng(seed).random(dom.mask.shape) < density)
        assume(nodes.any())
        solved = []
        real = eigensolve._block_ground_state

        def spy(block, floor, *args):
            out = real(block, floor, *args)
            solved.append((floor, out[0]))
            return out

        with mock.patch.object(eigensolve, "_block_ground_state", spy):
            res = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)
        labels, _ = scipy.ndimage.label(nodes, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        carrier = labels == labels.flat[np.argmax(res.field.values)]
        block, _ = masked_laplacian(dom, carrier)
        assert res.lam == pytest.approx(np.linalg.eigvalsh(block.toarray())[0], rel=1e-8)
        assert np.all(res.field.values[~carrier] == 0.0)
        # every shifted block stayed SPD: the shift sat below each lambda
        assert all(eigensolve._SHIFT * floor < lam for floor, lam in solved)


def coo_laplacian(domain: GridDomain, allowed: np.ndarray):
    """Reference assembly of ``masked_laplacian``: one COO entry per node and
    per allowed neighbour pair, direction by direction."""
    idx_flat = np.flatnonzero(allowed.ravel())
    n = idx_flat.size
    lut = -np.ones(allowed.size, dtype=np.intp)
    lut[idx_flat] = np.arange(n)
    h2 = domain.h * domain.h
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 4.0 / h2)]
    nx, ny = allowed.shape
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        shifted = np.zeros_like(allowed)
        src = allowed[max(0, -di) : nx - max(0, di), max(0, -dj) : ny - max(0, dj)]
        shifted[max(0, di) : nx + min(0, di), max(0, dj) : ny + min(0, dj)] = src
        pi, pj = np.nonzero(allowed & shifted)
        rows.append(lut[pi * ny + pj])
        cols.append(lut[(pi - di) * ny + (pj - dj)])
        vals.append(np.full(pi.size, -1.0 / h2))
    A = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return A, idx_flat


@st.composite
def random_masks(draw):
    """A random node set on a free lattice (every node allowed, edges
    included) or inside a square domain."""
    nx, ny = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dom = GridDomain.raw(nx, ny, draw(st.floats(0.01, 1.0)))
    else:
        dom = build_domain("square", max(nx, 2), 1.0)
    nodes = dom.mask & (rng.random(dom.mask.shape) < draw(st.floats(0.05, 1.0)))
    assume(nodes.any())
    return dom, nodes


def bridged_pair(n: int, side: int, hung: int) -> tuple[GridDomain, Mask]:
    """Two side x side blocks joined along row 5 by a one-node bridge, with
    node (6, hung) hung on the bridge off its mirror axis: lambda_1 and lambda_2
    differ by tunnelling through the bridge only, and no fold removes
    lambda_2's antisymmetric mode."""
    dom = build_domain("square", n, 1.0)
    nodes = np.zeros(dom.mask.shape, dtype=bool)
    nodes[5:5 + side, 1:1 + side] = True
    nodes[5:5 + side, n - side:n] = True
    nodes[5, 1:n] = True
    nodes[6, hung] = True
    return dom, Mask(dom, nodes & dom.mask)


class TestNearDegeneratePair:
    @pytest.mark.parametrize("n, side, hung", [(13, 3, 6), (20, 4, 9)])
    def test_converges_through_lanczos(self, n, side, hung):
        # the plain iteration contracts by 0.998 per solve or slower here
        dom, allowed = bridged_pair(n, side, hung)
        res = first_dirichlet_eig(dom, allowed, tol=1e-9)
        block, _ = masked_laplacian(dom, allowed.nodes)
        lam1, lam2 = np.linalg.eigvalsh(block.toarray())[:2]
        assert lam2 - lam1 < 1e-3 * lam1
        assert res.lam == pytest.approx(lam1, rel=1e-12)
        assert res.residual <= 1e-9
        assert eigensolve._LANCZOS_AFTER < res.iterations <= eigensolve._LANCZOS_AFTER + 60

    def test_lanczos_solves_count_towards_max_iter(self):
        dom, allowed = bridged_pair(13, 3, 6)
        with pytest.raises(ConvergenceError, match="did not converge"):
            first_dirichlet_eig(dom, allowed, tol=1e-9, max_iter=eigensolve._LANCZOS_AFTER + 5)


class TestAssembly:
    @settings(max_examples=150, deadline=None)
    @given(case=random_masks())
    def test_matches_coo_assembly(self, case):
        # the neighbour-table build is the COO build's matrix, array for array
        dom, nodes = case
        (A, idx), (B, ref) = masked_laplacian(dom, nodes), coo_laplacian(dom, nodes)
        assert np.array_equal(idx, ref) and idx.dtype == ref.dtype
        for name in ("indptr", "indices", "data"):
            got, want = getattr(A, name), getattr(B, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(case=random_masks())
    def test_strong_components_number_as_undirected(self, case):
        # the pattern is symmetric: its strong components are the connected
        # ones, in the same raster numbering the tie rule relies on
        A, _ = masked_laplacian(*case)
        nlab, labels = connected_components(A, directed=False)
        strong, strong_labels = connected_components(A, directed=True, connection="strong")
        assert strong == nlab and np.array_equal(strong_labels, labels)


def spied_floors(dom, nodes, **kw):
    """first_dirichlet_eig with the (floor, lambda, block size) of every
    solved component."""
    solved = []
    real = eigensolve._block_ground_state

    def spy(block, floor, *args):
        out = real(block, floor, *args)
        solved.append((floor, out[0], block.shape[0]))
        return out

    with mock.patch.object(eigensolve, "_block_ground_state", spy):
        res = first_dirichlet_eig(dom, Mask(dom, nodes), **kw)
    return res, solved


def walled_wire(n: int, walls: int) -> np.ndarray:
    """The centre block [n/3, 2n/3)^2 of square(1) plus a one-node wire on
    the walls: columns j = 1 and j = n - 1, then row i = 1, then row
    i = n - 1 stopping two nodes short of column n - 1, so the wire stays
    one open path."""
    nodes = np.zeros((n + 1, n + 1), dtype=bool)
    nodes[n // 3 : 2 * n // 3, n // 3 : 2 * n // 3] = True
    for wall in [(slice(1, n), 1), (slice(1, n), n - 1), (1, slice(1, n)),
                 (n - 1, slice(1, n - 2))][:walls]:
        nodes[wall] = True
    return nodes


@st.composite
def thin_masks(draw):
    """Adversarial node sets on square(1), n <= 24: one-node wires along the
    walls, combs, and two equal blocks joined by a one-node bridge, each
    beside a fat block or alone."""
    n = draw(st.integers(8, 24))
    nodes = np.zeros((n + 1, n + 1), dtype=bool)
    kind = draw(st.sampled_from(["wire", "comb", "dumbbell"]))
    if kind == "wire":
        walls = [(slice(1, n), 1), (1, slice(1, n)), (slice(1, n), n - 1), (n - 1, slice(1, n))]
        for wall in walls[: draw(st.integers(1, 4))]:
            nodes[wall] = True
        if draw(st.booleans()):
            nodes[n - 1, n - 2] = False  # open the ring into a path
    elif kind == "comb":
        spine = draw(st.integers(1, n - 1))
        nodes[spine, 1:n] = True
        for j in range(1, n, draw(st.integers(2, 4))):
            tooth = draw(st.integers(0, n - 1 - spine))
            nodes[spine : spine + tooth + 1, j] = True
    else:
        side = draw(st.integers(2, max(2, n // 3)))
        row = draw(st.integers(1, n - side))
        nodes[row : row + side, 1 : 1 + side] = True
        nodes[row : row + side, n - side : n] = True
        nodes[row + draw(st.integers(0, side - 1)), 1:n] = True
    if draw(st.booleans()):
        lo = draw(st.integers(2, n // 2))
        hi = draw(st.integers(lo + 1, n - 2))
        fat = np.zeros_like(nodes)
        fat[lo:hi, lo:hi] = True
        # beside the thin set, not touching it: a block hung on a dumbbell
        # breaks its mirror and leaves lambda_1 and lambda_2 nearly equal
        if not (scipy.ndimage.binary_dilation(fat) & nodes).any():
            nodes |= fat
    return build_domain("square", n, 1.0), nodes


class TestGershgorinFloor:
    @pytest.mark.parametrize("n, walls", [(48, 4), (64, 3), (64, 4)])
    def test_walled_wire_is_never_solved(self, n, walls):
        # the wire spans the whole box, so its box floor sits far below its
        # lambda, about 2/h^2; solved first from that shift, it stalled
        # inverse iteration into ConvergenceError
        dom = build_domain("square", n, 1.0)
        block = (2 * n // 3 - n // 3) ** 2
        res, solved = spied_floors(dom, walled_wire(n, walls), tol=1e-8)
        assert [size for _, _, size in solved] == [block]
        assert res.iterations == 0
        assert res.lam == pytest.approx(box_oracle(dom.h, 2 * n // 3 - n // 3,
                                                   2 * n // 3 - n // 3), rel=1e-13)

    def test_wire_alone_converges_above_its_floor(self):
        dom = build_domain("square", 48, 1.0)
        wire = walled_wire(48, 4)
        wire[16:32, 16:32] = False
        res, [(floor, lam, _)] = spied_floors(dom, wire, tol=1e-8)
        assert floor == 2 / dom.h**2 < lam
        A, _ = masked_laplacian(dom, wire)
        assert res.lam == pytest.approx(np.linalg.eigvalsh(A.toarray())[0], rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(case=thin_masks())
    def test_thin_sets_match_dense_eigvalsh(self, case):
        dom, nodes = case
        res, solved = spied_floors(dom, nodes, tol=1e-9)
        A, _ = masked_laplacian(dom, nodes)
        assert res.lam == pytest.approx(np.linalg.eigvalsh(A.toarray())[0], rel=1e-8)
        # each solved block's floor, hence its shift, sat below its lambda
        assert all(floor <= lam * (1 + 1e-12) for floor, lam, _ in solved)

    @settings(max_examples=25, deadline=None)
    @given(case=thin_masks())
    def test_every_floor_is_below_its_lambda(self, case):
        # solved one at a time, each component passes its own floor
        dom, nodes = case
        labels, nlab = scipy.ndimage.label(nodes, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        for c in range(1, nlab + 1):
            part = labels == c
            _, [(floor, lam, _)] = spied_floors(dom, part, tol=1e-9)
            A, _ = masked_laplacian(dom, part)
            dense = np.linalg.eigvalsh(A.toarray())[0]
            assert floor <= dense * (1 + 1e-12)
            assert lam == pytest.approx(dense, rel=1e-8)


def unfolded(fn, *args, **kw):
    """``fn`` with every component solved on its whole block."""
    with mock.patch.object(eigensolve, "_mirror_fold", lambda *a: None):
        return fn(*args, **kw)


@st.composite
def mirrored_masks(draw):
    """Node sets with lattice mirrors: a random quarter reflected across one
    or both axes, box sides odd or even, or a random square made symmetric
    about its diagonal; a one-node cross through the middle keeps most nodes
    on one symmetric component."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.4, 1.0))
    kind = draw(st.sampled_from(["i", "j", "both", "diagonal"]))
    p, q = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    if kind == "diagonal":
        half = np.triu(rng.random((p + q, p + q)) < density)
        box = half | half.T
    else:
        box = rng.random((p, q)) < density
        odd_i, odd_j = draw(st.booleans()), draw(st.booleans())
        if kind in ("i", "both"):
            box = np.concatenate([box, box[::-1][odd_i:]])
        if kind in ("j", "both"):
            box = np.concatenate([box, box[:, ::-1][:, odd_j:]], axis=1)
    box[box.shape[0] // 2, :] = box[:, box.shape[1] // 2] = True
    box[(box.shape[0] - 1) // 2, :] = box[:, (box.shape[1] - 1) // 2] = True
    n = max(box.shape) + 3
    dom = build_domain("square", n, 1.0)
    nodes = np.zeros(dom.mask.shape, dtype=bool)
    nodes[2 : 2 + box.shape[0], 2 : 2 + box.shape[1]] = box
    return dom, nodes


class TestMirrorFold:
    @settings(max_examples=60, deadline=None)
    @given(case=mirrored_masks())
    def test_folded_solve_matches_dense_and_unfolded(self, case):
        dom, nodes = case
        res = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-11)
        full = unfolded(first_dirichlet_eig, dom, Mask(dom, nodes), tol=1e-11)
        A, _ = masked_laplacian(dom, nodes)
        assert res.lam == pytest.approx(np.linalg.eigvalsh(A.toarray())[0], rel=1e-10)
        assert res.lam == pytest.approx(full.lam, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=mirrored_masks())
    def test_folded_block_is_the_invariant_restriction(self, case):
        # P has orthonormal columns, and block P = P (P^T block P) on the
        # carrying component
        dom, nodes = case
        labels, _ = scipy.ndimage.label(nodes, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        part = labels == np.bincount(labels.ravel())[1:].argmax() + 1
        block, idx = masked_laplacian(dom, part)
        ii, jj = np.divmod(idx, part.shape[1])
        fold = eigensolve._mirror_fold(block, ii - ii.min(), jj - jj.min())
        assume(fold is not None)
        folded, P = fold
        assert abs(P.T @ P - scipy.sparse.identity(P.shape[1])).max() <= 1e-15
        gap = (block @ P - P @ folded).toarray()
        assert np.abs(gap).max() <= 1e-12 * abs(block).max()
        assert P.shape[0] <= 8 * P.shape[1]

    @pytest.mark.parametrize("n", [48, 128])
    def test_fields_are_exactly_mirror_symmetric(self, n):
        disk = first_dirichlet_eig(build_domain("disk", n, 1.0), tol=1e-9)
        f = disk.field.values
        assert np.array_equal(f, f[::-1]) and np.array_equal(f, f[:, ::-1])
        assert np.array_equal(f, f.T)
        lune = first_dirichlet_eig(build_domain("disk_minus_ball", n, 2.0, 1.0), tol=1e-9)
        assert np.array_equal(lune.field.values, lune.field.values[:, ::-1])

    @pytest.mark.parametrize("shape, params", [("disk", (1.0,)), ("disk_minus_ball", (2.0, 1.0)),
                                               ("l_shape", (1.0,))])
    def test_full_block_residual_is_the_reported_one(self, shape, params):
        # the unit-l2 coefficient vector is field * h
        dom = build_domain(shape, 64, *params)
        res = first_dirichlet_eig(dom, tol=1e-9)
        assert res.iterations > 0
        A, idx = masked_laplacian(dom, dom.mask)
        x = res.field.values.ravel()[idx] * dom.h
        full = np.linalg.norm(A @ x - res.lam * x)
        assert full <= 1e-9
        assert abs(full - res.residual) <= 1e-12

    def test_component_without_mirror_takes_the_unfolded_path(self):
        dom = build_domain("square", 32, 1.0)
        nodes = dom.mask.copy()
        nodes[:10, :6] = False  # a corner notch breaks every mirror
        folds = []
        real = eigensolve._mirror_fold
        with mock.patch.object(eigensolve, "_mirror_fold",
                               lambda *a: folds.append(real(*a)) or folds[-1]):
            res = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)
        assert folds == [None] and res.iterations > 0
        ref = unfolded(first_dirichlet_eig, dom, Mask(dom, nodes), tol=1e-9)
        assert (res.lam, res.residual, res.iterations) == (ref.lam, ref.residual, ref.iterations)
        assert np.array_equal(res.field.values, ref.field.values)

    def test_disk_folds_eightfold(self):
        dom = build_domain("disk", 64, 1.0)
        sizes = []
        real = eigensolve._block_ground_state
        with mock.patch.object(eigensolve, "_block_ground_state",
                               lambda block, *a: sizes.append(block.shape[0]) or real(block, *a)):
            res = first_dirichlet_eig(dom, tol=1e-9)
        assert 7 * sizes[0] <= dom.mask.sum() <= 8 * sizes[0]
        assert res.iterations == unfolded(first_dirichlet_eig, dom, tol=1e-9).iterations


class TestBesselZero:
    def test_half_order_is_pi(self):
        assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-10)

    @pytest.mark.parametrize(
        "nu, expected",
        [
            (0.0, 2.404825557695773),
            (0.5, 3.141592653589793),
            (1.0, 3.831705970207512),
            (1.5, 4.493409457909064),
            (2.0, 5.135622301840683),
            (2.5, 5.763459196894550),
            (3.0, 6.380161895923984),
            (3.5, 6.987932000500520),
            (4.0, 7.588342434503804),
            (4.5, 8.182561452571243),
            (5.0, 8.771483815959954),
        ],
    )
    def test_against_scipy_oracle(self, nu, expected):
        # independent oracle: scipy Bessel + brentq bracket refinement
        oracle = scipy.optimize.brentq(
            lambda x: scipy.special.jv(nu, x), expected - 0.5, expected + 0.5,
            xtol=1e-13,
        )
        mine = bessel_first_zero(nu)
        assert mine == pytest.approx(oracle, abs=1e-10)
        assert mine == pytest.approx(expected, abs=1e-9)

    def test_out_of_range(self):
        for nu in (-0.1, 5.5):
            with pytest.raises(ValueError):
                bessel_first_zero(nu)


class TestRadialGroundState:
    def test_three_dimensional_closed_form(self):
        out = radial_ground_state(3, 0.5, 256)
        assert out.lambda_bar == pytest.approx(math.pi**2, rel=1e-8)

    def test_planar_matches_bessel(self):
        out = radial_ground_state(2, 0.5, 256)
        j0 = bessel_first_zero(0.0)
        assert out.lambda_bar == pytest.approx(j0 * j0, rel=1e-8)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_profile_shape(self, dim):
        out = radial_ground_state(dim, 0.7, 200)
        assert out.phi[0] == 1.0
        assert abs(out.phi[-1]) <= 1e-8
        inner = out.phi[: -1]
        assert np.all(np.diff(inner) < 0)
        assert np.all(inner > 0)

    @pytest.mark.parametrize("dim", [2, 3, 5, 13, 40])
    def test_solves_radial_equation(self, dim):
        # dims above 12 lie past bessel_first_zero's [0, 5] order range
        out = radial_ground_state(dim, 0.5, 2001)
        s, phi = out.s, out.phi
        ds = s[1] - s[0]
        d2 = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / ds**2
        d1 = (phi[2:] - phi[:-2]) / (2.0 * ds)
        residual = d2 + (dim - 1) / s[1:-1] * d1 + out.lambda_bar * phi[1:-1]
        assert np.max(np.abs(residual)) <= 1e-5 * out.lambda_bar
        assert abs(phi[-1]) <= 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            radial_ground_state(1, 1.0)
        with pytest.raises(ValueError):
            radial_ground_state(3, -1.0)
        with pytest.raises(ValueError):
            radial_ground_state(3, 1.0, samples=8)


class TestCapSpectrum:
    @pytest.mark.parametrize("dim", [3, 4, 5, 10, 20, 30, 40, 50, 60])
    def test_hemisphere_value(self, dim):
        # the symmetrized bisection missed N - 1 by 8.3e-6 at N = 30 and by
        # 1.39 at N = 60, since its matrix norm grows like 1.5^(N-2) / dt^2
        cs = cap_eigenvalue(dim, 0.0, 4096)
        assert abs(cs.lambda1 - (dim - 1)) <= 1e-6

    def test_hemisphere_profile_is_cosine(self):
        cs = cap_eigenvalue(3, 0.0, 4096)
        assert np.abs(cs.profile - np.cos(cs.theta)).max() <= 1e-4

    def test_planar_interval_value(self):
        cs = cap_eigenvalue(2, 0.0, 2048)
        assert abs(cs.lambda1 - 1.0) <= 1e-6

    def test_theta_r_formula(self):
        cs = cap_eigenvalue(3, 0.4, 512)
        assert cs.theta_r == pytest.approx(math.acos(-0.2))

    def test_monotone_nonincreasing_in_r(self):
        vals = [cap_eigenvalue(3, r, 2048).lambda1 for r in np.arange(0, 0.51, 0.05)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_slope_at_zero_negative(self):
        lam0 = cap_eigenvalue(3, 0.0, 4096).lambda1
        lam_eps = cap_eigenvalue(3, 0.01, 4096).lambda1
        assert (lam_eps - lam0) / 0.01 < 0

    def test_profile_positive_inside_zero_at_edge(self):
        for dim, r, nodes in [(4, 0.3, 1024), (2, 0.0, 16), (5, 0.5, 4096), (60, 0.3, 4096)]:
            cs = cap_eigenvalue(dim, r, nodes)
            assert cs.profile[-1] == 0.0
            assert np.all(cs.profile[:-1] > 0)
            assert cs.profile[0] == 1.0
            assert cs.theta[-1] == cs.theta_r

    @pytest.mark.parametrize("dim", [89, 100])
    def test_underflowing_weights_rejected(self, dim):
        with pytest.raises(ValueError, match=f"dim={dim}, nodes=4096"):
            cap_eigenvalue(dim, 0.0, 4096)

    @pytest.mark.parametrize("nodes", [16, 64])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("r", [0.0, 0.3])
    def test_matches_dense_generalized_eigensolve(self, nodes, dim, r):
        _, _, diag, off, bdiag = _cap_pencil(dim, r, nodes)
        stiffness = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        (ref,) = scipy.linalg.eigh(
            stiffness, np.diag(bdiag), eigvals_only=True, subset_by_index=(0, 0)
        )
        assert cap_eigenvalue(dim, r, nodes).lambda1 == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_symmetrized_bisection(self, dim):
        # bisection on B^-1/2 K B^-1/2 is accurate to ulp * |T| only, which
        # bounds the difference at 4096 nodes and N <= 5
        for r in np.arange(0.0, 0.51, 0.05):
            _, _, diag, off, bdiag = _cap_pencil(dim, r, 4096)
            s = 1.0 / np.sqrt(bdiag)
            (ref,), _ = eigh_tridiagonal(
                diag * s * s, off * s[:-1] * s[1:], select="i", select_range=(0, 0)
            )
            assert abs(cap_eigenvalue(dim, r, 4096).lambda1 - ref) <= 5e-9

    def test_convergence_error_after_the_solve_cap(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "_CAP_MAX_SOLVES", 1)
        with pytest.raises(ConvergenceError, match="cap inverse iteration"):
            cap_eigenvalue(3, 0.3, 64)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cap_eigenvalue(3, 1.0)
        with pytest.raises(ValueError):
            cap_eigenvalue(3, -0.1)


@pytest.fixture(scope="module")
def lune():
    return build_domain("disk_minus_ball", 64, 2.0, 1.0)


class TestPoincare:
    def test_scaling_invariance(self, lune):
        x, y = lune.coords()
        f = ScalarField.from_values(lune, x + y + 1.0)
        g = ScalarField.from_values(lune, 2.0 * (x + y + 1.0))
        assert poincare_check(f, 0.5) == pytest.approx(poincare_check(g, 0.5))

    def test_far_support_reduces_to_interior_quotient(self, lune):
        x, y = lune.coords()
        bump = np.exp(-60.0 * ((x - 0.6) ** 2 + (y - 0.0) ** 2))
        bump[bump < 1e-6] = 0.0
        f = ScalarField.from_values(lune, bump)
        r = 1.0
        ratio = poincare_check(f, r)
        h = lune.h
        rho = np.hypot(x, y)
        ball = rho <= r
        interior = float((f.values[ball] ** 2).sum()) * h * h
        from segpart.grid import gradient_magnitude

        grad = float((gradient_magnitude(f).values[ball] ** 2).sum()) * h * h
        # the Gaussian tail leaves a sub-1e-3 boundary residue
        assert ratio == pytest.approx(interior / (r * r) / grad, rel=1e-3)

    def test_zero_field_rejected(self, lune):
        with pytest.raises(ValueError):
            poincare_check(ScalarField.zeros(lune), 0.5)

    def test_constraint_violation_detected(self, lune):
        vals = np.ones(lune.mask.shape)
        f = ScalarField(lune, np.where(lune.mask, 1.0, 0.0))
        # force a nonzero value inside the excluded ball region
        bad = np.zeros(lune.mask.shape)
        bad[lune.nearest_node((-0.5, 0.0))] = 1.0
        g = ScalarField(GridDomain.raw(lune.nx, lune.ny, lune.h, lune.bbox), bad)
        with pytest.raises(ConstraintViolationError, match="constraint violated"):
            poincare_check(g, 1.0, excluded=(np.hypot(*np.meshgrid(
                lune.xs() + 1.0, lune.ys(), indexing="ij")) <= 1.0))

    @pytest.mark.parametrize("r", [0.0, -0.5, math.inf, -math.inf, math.nan])
    def test_radius_must_be_finite_and_positive(self, lune, r):
        f = ScalarField.from_values(lune, np.ones(lune.mask.shape))
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            poincare_check(f, r)

    @pytest.mark.parametrize("center, r", [((10.0, 10.0), 1.0), ((0.01, 0.01), 0.005)])
    def test_ball_without_a_lattice_node_rejected(self, lune, center, r):
        f = ScalarField.from_values(lune, np.ones(lune.mask.shape))
        with pytest.raises(ValueError, match="holds no lattice node"):
            poincare_check(f, r, center=center)

    def test_uniformly_bounded_over_seeded_fields(self, lune):
        # a single constant works for all r <= R: freeze an empirical bound;
        # one stack of the 334 fields, drawn as 334 draws of 6 coefficients
        rng = np.random.default_rng(20240117)
        x, y = lune.coords()
        c = rng.standard_normal((334, 6))[:, :, None, None]
        vals = (
            c[:, 0] + c[:, 1] * x + c[:, 2] * y
            + c[:, 3] * np.sin(2 * x) + c[:, 4] * np.cos(2 * y) + c[:, 5] * x * y
        )
        stack = np.where(lune.mask, vals, 0.0)
        excluded = exterior_ball_nodes(lune)
        worst = 0.0
        for r in (0.25, 0.5, 1.0):
            box, rho = _ball_box(lune, r, (0.0, 0.0))
            quotients = _poincare_quotients(lune, stack[:, box[0], box[1]], r, box, rho, excluded)
            worst = max(worst, quotients.max())
        assert math.isfinite(worst)
        assert worst <= 1.0e4
