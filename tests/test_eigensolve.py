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
from oracles import coo_laplacian
from scipy.linalg import eigh_tridiagonal

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

CROSS = [[0, 1, 0], [1, 1, 1], [0, 1, 0]]


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


def with_blas_threads(script: str, threads: str | None):
    """The JSON that ``script`` prints last, run in a fresh interpreter with
    OPENBLAS_NUM_THREADS = ``threads`` (unset for None).  The script sees
    ``json``, ``build_domain``, ``first_dirichlet_eig`` and ``digest``, an
    EigenResult's exact fields with its field's sha256."""
    prelude = (
        "import hashlib, json\n"
        "from segpart.eigensolve import first_dirichlet_eig\n"
        "from segpart.grid import build_domain\n"
        "def digest(r):\n"
        "    return [r.lam.hex(), r.residual.hex(), r.iterations,\n"
        "            hashlib.sha256(r.field.values.tobytes()).hexdigest()]\n"
    )
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(segpart.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", prelude + script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def dense_lambda(dom, nodes) -> float:
    """lambda_1 of ``coo_laplacian`` on ``nodes`` by dense ``eigvalsh``."""
    return np.linalg.eigvalsh(coo_laplacian(dom, nodes)[0].toarray())[0]


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
        real = eigensolve._component_ground_state
        monkeypatch.setattr(
            eigensolve, "_component_ground_state",
            lambda box, *args: calls.append(int(box.sum())) or real(box, *args),
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
        labels, nlab = scipy.ndimage.label(nodes, structure=CROSS)
        solo = []
        for c, box in enumerate(scipy.ndimage.find_objects(labels)):
            r = first_dirichlet_eig(dom, Mask(dom, labels == c + 1), tol=1e-9)
            floor = box_oracle(dom.h, *(sl.stop - sl.start for sl in box))
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
        A, _ = coo_laplacian(dom, dom.mask)
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

    def test_nonconvergence_carries_residual(self, monkeypatch):
        dom = build_domain("square", 32, 1.0)
        monkeypatch.setattr(eigensolve, "_MAX_SOLVES", 1)
        with pytest.raises(ConvergenceError) as err:
            first_dirichlet_eig(dom, tol=1e-14)
        assert err.value.residual > 0

    def test_rejects_a_mask_from_another_lattice(self):
        # the same 33 x 33 lattice at twice the spacing gave lambda = 19.72
        # for the mask's own 4.93; a mask of the n = 48 lattice indexed past
        # the n = 32 one
        dom = build_domain("square", 32, 1.0)
        for other in (build_domain("square", 32, 2.0), build_domain("square", 48, 1.0)):
            with pytest.raises(ValueError, match="another lattice"):
                first_dirichlet_eig(dom, Mask(other, other.mask), tol=1e-9)
        twin = GridDomain.raw(dom.nx, dom.ny, dom.h, dom.bbox)
        res = first_dirichlet_eig(twin, Mask(dom, dom.mask), tol=1e-9)
        assert exact_result(res) == exact_result(first_dirichlet_eig(dom, tol=1e-9))

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

    def test_full_box_that_misses_tol_raises_at_its_start(self, monkeypatch):
        # iterating cannot improve on the exact eigenvector: the start's
        # residual is reported at once, and no block is factored
        dom = build_domain("square", 128, 1.0)
        start = first_dirichlet_eig(dom, tol=1e-9).residual
        factored = []
        monkeypatch.setattr(eigensolve, "_factor", lambda *a: factored.append(a))
        with pytest.raises(ConvergenceError) as err:
            first_dirichlet_eig(dom, tol=start / 2)
        assert err.value.residual == start
        assert factored == []

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
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            first_dirichlet_eig(dom, tol=tol)

    def test_independent_of_blas_thread_count(self):
        # the notched n = 64 square has no mirror, so it iterates on its
        # whole 3924-node block, of kd = 63: blocked dpbtrf calls level-3
        # BLAS from kd = 32.  The n = 13 bridged pair refines its shift.
        # The n = 128 L-shape folds across its diagonal to the widest band
        # factored by Cholesky
        assert folded_kd("l_shape", 128, 1.0) == eigensolve._BAND_MAX
        pair = bridged_pair(13, 3, 6)[1].nodes.tolist()
        script = (
            "import numpy as np\n"
            "from segpart.grid import Mask\n"
            "dom = build_domain('square', 64, 1.0)\n"
            "nodes = dom.mask.copy()\n"
            "nodes[:10, :6] = False\n"
            "solves = [first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)]\n"
            "dom = build_domain('square', 13, 1.0)\n"
            f"solves.append(first_dirichlet_eig(dom, Mask(dom, np.array({pair})), tol=1e-9))\n"
            "solves.append(first_dirichlet_eig(build_domain('l_shape', 128, 1.0), tol=1e-9))\n"
            "print(json.dumps([digest(r) for r in solves]))\n"
        )
        runs = [with_blas_threads(script, threads) for threads in ("1", "2")]
        assert runs[0][0][2] > 0 and runs[0][1][2] > eigensolve._REFINE_AFTER and runs[0][2][2] > 0
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
        res, solved = spied_floors(dom, nodes, tol=1e-9)
        labels, _ = scipy.ndimage.label(nodes, structure=CROSS)
        carrier = labels == labels.flat[np.argmax(res.field.values)]
        assert res.lam == pytest.approx(dense_lambda(dom, carrier), rel=1e-8)
        assert np.all(res.field.values[~carrier] == 0.0)
        # every shifted block stayed SPD: the shift sat below each lambda
        assert all(eigensolve._SHIFT * floor < lam for floor, lam, _ in solved)


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
    def test_converges_by_a_refined_shift(self, n, side, hung):
        # the floor's shift contracts by 0.998 per solve or slower here; the
        # shift refined after _REFINE_AFTER solves separates the pair
        dom, allowed = bridged_pair(n, side, hung)
        res = first_dirichlet_eig(dom, allowed, tol=1e-9)
        lam1, lam2 = np.linalg.eigvalsh(coo_laplacian(dom, allowed.nodes)[0].toarray())[:2]
        assert lam2 - lam1 < 1e-3 * lam1
        assert res.lam == pytest.approx(lam1, rel=1e-12)
        assert res.residual <= 1e-9
        assert eigensolve._REFINE_AFTER < res.iterations <= eigensolve._REFINE_AFTER + 20

    def test_refined_solves_count_towards_max_solves(self, monkeypatch):
        dom, allowed = bridged_pair(13, 3, 6)
        monkeypatch.setattr(eigensolve, "_MAX_SOLVES", eigensolve._REFINE_AFTER + 3)
        with pytest.raises(ConvergenceError, match="did not converge"):
            first_dirichlet_eig(dom, allowed, tol=1e-9)

    def test_a_refused_refinement_keeps_the_old_factor(self, monkeypatch):
        # disk_minus_ball(2, 1) at n = 32 takes 18 solves, so no refinement
        # at the real schedule; at 4, 8, 16 solves every refined factor is
        # refused and the solve goes on with its first one, bit for bit
        dom = build_domain("disk_minus_ball", 32, 2.0, 1.0)
        plain = first_dirichlet_eig(dom, tol=1e-9)
        assert plain.iterations < eigensolve._REFINE_AFTER
        real, shifts = _factor, []

        def refuse_after_the_first(block, shift=0.0):
            shifts.append(shift)
            if len(shifts) > 1:
                raise ConvergenceError("refused", math.nan)
            return real(block, shift)

        monkeypatch.setattr(eigensolve, "_REFINE_AFTER", 4)
        refined = first_dirichlet_eig(dom, tol=1e-9)
        monkeypatch.setattr(eigensolve, "_factor", refuse_after_the_first)
        refused = first_dirichlet_eig(dom, tol=1e-9)
        assert len(shifts) > 1 and all(s > shifts[0] for s in shifts[1:])
        assert exact_result(refused) == exact_result(plain)
        # a refined factor that is accepted does change the solve
        assert refined.iterations < plain.iterations


class TestAssembly:
    @settings(max_examples=150, deadline=None)
    @given(case=random_masks())
    def test_matches_coo_assembly(self, case):
        # the neighbour-table build is the COO build's matrix, array for array
        dom, nodes = case
        (A, idx), (B, ref) = masked_laplacian(dom, nodes), coo_laplacian(dom, nodes)
        assert idx.tobytes() == ref.tobytes() and idx.dtype == ref.dtype
        assert_same_csr(A, B)


def spied_floors(dom, nodes, **kw):
    """first_dirichlet_eig with the (floor, lambda, node count) of every
    solved component."""
    solved = []
    real = eigensolve._component_ground_state

    def spy(box, floor, *args):
        out = real(box, floor, *args)
        solved.append((floor, out[0], int(box.sum())))
        return out

    with mock.patch.object(eigensolve, "_component_ground_state", spy):
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
        assert res.lam == pytest.approx(dense_lambda(dom, wire), rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(case=thin_masks())
    def test_thin_sets_match_dense_eigvalsh(self, case):
        dom, nodes = case
        res, solved = spied_floors(dom, nodes, tol=1e-9)
        assert res.lam == pytest.approx(dense_lambda(dom, nodes), rel=1e-8)
        # each solved block's floor, hence its shift, sat below its lambda
        assert all(floor <= lam * (1 + 1e-12) for floor, lam, _ in solved)

    @settings(max_examples=25, deadline=None)
    @given(case=thin_masks())
    def test_every_floor_is_below_its_lambda(self, case):
        # solved one at a time, each component passes its own floor
        dom, nodes = case
        labels, nlab = scipy.ndimage.label(nodes, structure=CROSS)
        for c in range(1, nlab + 1):
            part = labels == c
            _, [(floor, lam, _)] = spied_floors(dom, part, tol=1e-9)
            dense = dense_lambda(dom, part)
            assert floor <= dense * (1 + 1e-12)
            assert lam == pytest.approx(dense, rel=1e-8)


def trivial_orbits(box: np.ndarray):
    """The trivial group on the nodes of ``box``: every node its own orbit."""
    nodes = np.arange(np.count_nonzero(box))
    return nodes, nodes, np.ones_like(nodes)


def unfolded(fn, *args, **kw):
    """``fn`` with every component solved on its whole block."""
    with mock.patch.object(eigensolve, "_mirror_orbits", trivial_orbits):
        return fn(*args, **kw)


def assert_trivial(orbits, box):
    """``orbits`` is the trivial group on the nodes of ``box``."""
    assert all(np.array_equal(got, want) for got, want in zip(orbits, trivial_orbits(box)))


def assert_canonical(M):
    """Each row's column indices are sorted and unique."""
    rows = np.repeat(np.arange(M.shape[0], dtype=np.int64), np.diff(M.indptr))
    assert np.all(np.diff(rows * M.shape[1] + M.indices) > 0)


def largest_component(nodes):
    """The nodes of the largest 4-connected component of ``nodes``."""
    labels, _ = scipy.ndimage.label(nodes, structure=CROSS)
    return labels == np.bincount(labels.ravel())[1:].argmax() + 1


def bounding_box(nodes):
    """``nodes`` cut to the bounding box of its nodes."""
    ii, jj = np.nonzero(nodes)
    return nodes[ii.min() : ii.max() + 1, jj.min() : jj.max() + 1]


def orbit_basis(orbit, reps, size):
    """The orthonormal orbit basis P: 1/sqrt|o| on orbit o's nodes."""
    return scipy.sparse.csr_matrix(
        (1.0 / np.sqrt(size)[orbit], orbit, np.arange(orbit.size + 1)),
        shape=(orbit.size, reps.size),
    )


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
        assert res.lam == pytest.approx(dense_lambda(dom, nodes), rel=1e-10)
        assert res.lam == pytest.approx(full.lam, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=mirrored_masks())
    def test_folded_block_is_the_invariant_restriction(self, case):
        # P has orthonormal columns, and block P = P (P^T block P) on the
        # carrying component
        dom, nodes = case
        part = largest_component(nodes)
        block, box = coo_laplacian(dom, part)[0], bounding_box(part)
        orbits = eigensolve._mirror_orbits(box)
        folded, P = eigensolve._lattice_block(box, dom.h, orbits), orbit_basis(*orbits)
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
        A, idx = coo_laplacian(dom, dom.mask)
        x = res.field.values.ravel()[idx] * dom.h
        full = np.linalg.norm(A @ x - res.lam * x)
        assert full <= 1e-9
        assert abs(full - res.residual) <= 1e-12

    def test_component_without_mirror_takes_the_unfolded_path(self):
        # the trivial group folds nothing: the solve is the whole block's,
        # bit for bit as on the reference path
        dom = build_domain("square", 32, 1.0)
        nodes = dom.mask.copy()
        nodes[:10, :6] = False  # a corner notch breaks every mirror
        folds = []
        real = eigensolve._mirror_orbits
        with mock.patch.object(eigensolve, "_mirror_orbits",
                               lambda box: folds.append((box, real(box))) or folds[-1][1]):
            res = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)
        [(box, orbits)] = folds
        assert_trivial(orbits, box)
        assert res.iterations > 0
        assert exact_result(res) == exact_result(reference_eig(dom, nodes, 1e-9))

    def test_disk_folds_eightfold(self):
        dom = build_domain("disk", 64, 1.0)
        sizes = []
        real = eigensolve._block_ground_state
        with mock.patch.object(eigensolve, "_block_ground_state",
                               lambda block, *a: sizes.append(block.shape[0]) or real(block, *a)):
            res = first_dirichlet_eig(dom, tol=1e-9)
        assert 7 * sizes[0] <= dom.mask.sum() <= 8 * sizes[0]
        assert res.iterations == unfolded(first_dirichlet_eig, dom, tol=1e-9).iterations


# The references the solver's set-up reproduces bit for bit: the COO
# assembly (``oracles.coo_laplacian``), the fold through an explicit P, the
# sin x sin box start, and the solve built on the three


def searchsorted_orbits(box: np.ndarray, antidiagonal: bool = True):
    """(orbit, reps, size) for the nodes of ``box`` under its lattice
    mirrors, or None if it has none: each orbit is named by its first image
    in box raster order and numbered by ``searchsorted`` on that name, or,
    under the diagonal and if ``antidiagonal``, on (a + b, a) of that first
    image (a, b)."""
    mi, mj = box.shape
    flip_i = np.array_equal(box, box[::-1])
    flip_j = np.array_equal(box, box[:, ::-1])
    diagonal = mi == mj and np.array_equal(box, box.T)
    if not (flip_i or flip_j or diagonal):
        return None
    first = np.arange(mi * mj).reshape(mi, mj)
    if flip_i:
        first = np.minimum(first, first[::-1])
    if flip_j:
        first = np.minimum(first, first[:, ::-1])
    if diagonal:
        first = np.minimum(first, first.T)
    a, b = np.nonzero(box)
    key = first[a, b]
    reps = np.flatnonzero(key == a * mj + b)
    if diagonal and antidiagonal:
        ra, rb = np.divmod(key, mj)
        key = (ra + rb) * mi + ra
        reps = reps[np.argsort(key[reps])]
    orbit = np.searchsorted(key[reps], key)
    return orbit, reps, np.bincount(orbit)


def searchsorted_fold(block, box: np.ndarray):
    """(P^T block P, P) for ``block`` on the nodes of ``box`` (raster order),
    or None if ``box`` has no mirror: P is formed from
    ``searchsorted_orbits``, and the folded block is scipy's product
    ``block[reps] @ P`` with sorted indices, row o scaled by sqrt|o|."""
    orbits = searchsorted_orbits(box)
    if orbits is None:
        return None
    _, reps, size = orbits
    P = orbit_basis(*orbits)
    folded = block[reps] @ P
    folded.sort_indices()
    folded.data *= np.repeat(np.sqrt(size), np.diff(folded.indptr))
    return folded, P


def sin_sin_start(a, b, mi, mj):
    """The box start evaluated on every node, two sines per node."""
    return np.sin(math.pi / (mi + 1) * (a + 1)) * np.sin(math.pi / (mj + 1) * (b + 1))


def reference_eig(dom, nodes, tol):
    """``first_dirichlet_eig`` on a 4-connected set from the references: the
    whole-lattice COO Laplacian is the block, folded through P unless the
    set fills its box, the start is sin x sin, and the final lambda is
    taken on the block."""
    A, idx = coo_laplacian(dom, nodes)
    box = bounding_box(nodes)
    (mi, mj), (a, b) = box.shape, np.nonzero(box)
    gershgorin = (5 - np.diff(A.indptr)).min() / dom.h**2  # 4 - neighbours, per row
    floor = max(box_oracle(dom.h, mi, mj), gershgorin)
    x0 = sin_sin_start(a, b, mi, mj)
    fold = None if a.size == box.size else searchsorted_fold(A, box)
    if fold is None:
        lam, x, res, solves = eigensolve._block_ground_state(A, floor, tol, x0)
    else:
        folded, P = fold
        lam, z, res, solves = eigensolve._block_ground_state(folded, floor, tol, P.T @ x0)
        x = P @ z
    if x.sum() < 0:
        x = -x
    x = np.clip(x, 0.0, None)
    x /= _norm(x)
    values = np.zeros(dom.mask.shape)
    values.ravel()[idx] = x / dom.h
    return eigensolve.EigenResult(_dot(x, A @ x), ScalarField(dom, values), res, solves)


def csr_bytes(M):
    return [M.indptr.tobytes(), M.indices.tobytes(), M.data.tobytes(), M.shape]


def assert_same_csr(got, want):
    """The same CSR and CSC arrays, byte for byte, in the same index dtypes."""
    assert csr_bytes(got) == csr_bytes(want)
    assert csr_bytes(got.tocsc()) == csr_bytes(want.tocsc())
    assert (got.indptr.dtype, got.indices.dtype) == (want.indptr.dtype, want.indices.dtype)


def assert_blocks_match(dom, box):
    """The box builder's blocks under the trivial group and the box's own,
    the orbit basis, and the products that replace P, against the references
    on the nodes of ``box``; a box without a mirror is folded by P = I."""
    ref, _ = coo_laplacian(dom, box)
    assert_same_csr(eigensolve._lattice_block(box, dom.h, trivial_orbits(box)), ref)
    orbits = eigensolve._mirror_orbits(box)
    fold = searchsorted_fold(ref, box)
    if fold is None:
        assert_trivial(orbits, box)
    folded, P = fold or (ref, scipy.sparse.identity(ref.shape[0], format="csr"))
    got = eigensolve._lattice_block(box, dom.h, orbits)
    assert_canonical(got)
    assert_same_csr(got, folded)
    assert csr_bytes(orbit_basis(*orbits)) == csr_bytes(P)
    orbit, _, size = orbits
    inv = (1.0 / np.sqrt(size))[orbit]
    x0 = eigensolve._box_start(box)
    assert np.bincount(orbit, x0 * inv).tobytes() == (P.T @ x0).tobytes()
    z = np.random.default_rng(ref.shape[0]).standard_normal(size.size)
    assert (z[orbit] * inv).tobytes() == (P @ z).tobytes()
    return orbits


def mirror_box(kind: str, side: int) -> np.ndarray:
    """A random side x side node set made symmetric under the mirrors of
    ``kind``: i, j, both, diagonal, or all eight symmetries of the square."""
    box = np.random.default_rng(side).random((side, side)) < 0.2
    box[0, :] = box[:, 0] = True  # the box is the set's bounding box
    if kind in ("i", "both", "8"):
        box |= box[::-1]
    if kind in ("j", "both", "8"):
        box |= box[:, ::-1]
    if kind in ("diagonal", "8"):
        box |= box.T
    return box


class TestSetupMatchesOffsetMajor:
    """The lattice set-up against the references: the offset-major
    neighbour table of ``_lattice_block`` on named sets, the orbit numbering
    of ``_mirror_orbits``, the blocks of whole mirrored sets' boxes, and the
    box start."""

    @pytest.mark.parametrize("kind", ["full", "empty_rows", "isolated", "single"])
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 7), (9, 1), (12, 17)])
    def test_laplacian_bytes_on_named_sets(self, kind, nx, ny):
        dom = GridDomain.raw(nx, ny, 0.1)
        i, j = np.indices((nx, ny))
        nodes = {"full": dom.mask, "empty_rows": i % 3 != 1, "isolated": (i + j) % 2 == 0,
                 "single": (i == nx // 2) & (j == ny // 2)}[kind]
        got = eigensolve._lattice_block(nodes, dom.h, trivial_orbits(nodes))
        assert_same_csr(got, coo_laplacian(dom, nodes)[0])

    @pytest.mark.parametrize("kind", ["i", "j", "both", "diagonal", "8"])
    @pytest.mark.parametrize("side", [9, 10])
    def test_orbit_numbering(self, kind, side):
        box = mirror_box(kind, side)
        got, want = eigensolve._mirror_orbits(box), searchsorted_orbits(box)
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=60, deadline=None)
    @given(case=mirrored_masks())
    def test_orbit_numbering_on_mirrored_masks(self, case):
        # the whole set's box, beside test_blocks_match_the_reference_path's
        # largest component
        dom, nodes = case
        assert_blocks_match(dom, bounding_box(nodes))

    @pytest.mark.parametrize("mi, mj", [(1, 1), (1, 5), (5, 1), (2, 3), (17, 16), (127, 127),
                                        (255, 255), (40, 201)])
    def test_box_start(self, mi, mj):
        a, b = np.divmod(np.arange(mi * mj), mj)
        keep = np.random.default_rng(mi * mj).random(a.size) < 0.7
        for sel in (slice(None), keep):
            box = np.zeros((mi, mj), dtype=bool)
            box[a[sel], b[sel]] = True
            got = eigensolve._box_start(box)
            assert got.tobytes() == sin_sin_start(a[sel], b[sel], mi, mj).tobytes()


@st.composite
def row_run_masks(draw):
    """One run of columns on each of a band of contiguous rows: 4-connected
    exactly when each run shares a column with the next."""
    nx, ny = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    top = draw(st.integers(0, nx - 1))
    rows = draw(st.integers(1, nx - top))
    nodes = np.zeros((nx, ny), dtype=bool)
    for i in range(top, top + rows):
        lo = draw(st.integers(0, ny - 1))
        nodes[i, lo : draw(st.integers(lo + 1, ny))] = True
    return GridDomain.raw(nx, ny, 0.1), nodes


def certified(nodes: np.ndarray) -> bool:
    return eigensolve._rows_connected(nodes)

def named_declined_sets() -> dict:
    """Sets the row certificate declines: connected ones and split ones."""
    sets = {}
    u = np.zeros((12, 12), dtype=bool)
    u[2:10, 2] = u[2:10, 9] = u[9, 2:10] = True
    sets["u_shape"] = u
    sets["cap_shape"] = u[::-1].copy()
    ring = np.zeros((12, 12), dtype=bool)
    ring[2:10, 2:10] = True
    ring[4:8, 4:8] = False
    sets["ring"] = ring
    two_runs = np.zeros((12, 12), dtype=bool)
    two_runs[5, 1:4] = two_runs[5, 6:11] = True
    sets["row_with_two_runs"] = two_runs
    diagonal = np.zeros((12, 12), dtype=bool)
    diagonal[5, 5] = diagonal[6, 6] = True
    sets["diagonal_pair"] = diagonal
    gap = np.zeros((12, 12), dtype=bool)
    gap[2:5, 3:9] = gap[6:9, 3:9] = True
    sets["empty_row_between"] = gap
    return sets


def exact_result(res):
    return res.lam, res.field.values.tobytes(), res.residual, res.iterations


class TestConnectivityCertificate:
    @settings(max_examples=300, deadline=None)
    @given(case=row_run_masks())
    def test_row_runs_certified_exactly_when_connected(self, case):
        _, nodes = case
        assert certified(nodes) == (scipy.ndimage.label(nodes, structure=CROSS)[1] == 1)

    @settings(max_examples=300, deadline=None)
    @given(case=random_masks())
    def test_certified_sets_are_one_component(self, case):
        _, nodes = case
        if certified(nodes):
            assert scipy.ndimage.label(nodes, structure=CROSS)[1] == 1

    @pytest.mark.parametrize("name", list(named_declined_sets()))
    def test_declined_sets_solve_correctly(self, name):
        nodes = named_declined_sets()[name]
        dom = GridDomain.raw(*nodes.shape, 1.0 / 11)
        assert not certified(nodes)
        res = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-10)
        assert res.lam == pytest.approx(dense_lambda(dom, nodes), rel=1e-10)
        assert res.residual <= 1e-10

    @pytest.mark.parametrize("shape, params", [("square", (1.0,)), ("disk", (1.0,)),
                                               ("rectangle", (2.0, 1.0)), ("l_shape", (1.0,))])
    def test_domains_are_certified(self, shape, params):
        assert certified(build_domain(shape, 48, *params).mask)

    @settings(max_examples=80, deadline=None)
    @given(case=st.one_of(random_masks(), row_run_masks(), mirrored_masks()))
    def test_labelled_path_gives_the_same_bits(self, case):
        # declining every set sends it through scipy.ndimage.label; a
        # connected set must come out bit for bit as on the certified path
        dom, nodes = case
        fast = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)
        with mock.patch.object(eigensolve, "_rows_connected", lambda nodes: False):
            slow = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)
        assert exact_result(fast) == exact_result(slow)

    def test_labelled_path_gives_the_same_bits_at_n128(self, disk_eig_128, square_eig_128):
        for dom, fast in (disk_eig_128, square_eig_128):
            with mock.patch.object(eigensolve, "_rows_connected", lambda nodes: False):
                slow = first_dirichlet_eig(dom, tol=1e-9)
            assert exact_result(fast) == exact_result(slow)


def superlu_factor(block, shift=0.0):
    """The factor every block took before the banded path: SuperLU on the
    CSC copy with the shift subtracted by ``setdiag``, pivots on the
    diagonal, a symmetric minimum-degree ordering."""
    csc = block.tocsc(copy=True)
    csc.setdiag(csc.diagonal() - shift)
    return scipy.sparse.linalg.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                    relax=1, panel_size=1, options={"SymmetricMode": True})


def half_bandwidth(block) -> int:
    rows = np.repeat(np.arange(block.shape[0]), np.diff(block.indptr))
    return int((rows - block.indices).max())


def whole_lattice_block(shape, n, *params):
    dom = build_domain(shape, n, *params)
    A, _ = coo_laplacian(dom, dom.mask)
    return A, 0.99 * box_oracle(dom.h, dom.nx, dom.ny)


# the 5-point blocks are well conditioned and Cholesky and SuperLU are
# backward stable: (A - sigma I) x = b holds to this normwise backward error
BACKWARD_ERROR = 1e-14


class TestBandedFactor:
    @pytest.mark.parametrize("shape, n, params", [
        ("disk", 48, (1.0,)), ("disk_minus_ball", 48, (2.0, 1.0)), ("square", 128, (1.0,))],
        ids=["disk48", "disk_minus_ball48", "square128"])
    def test_factor_solves_the_shifted_block(self, shape, n, params):
        A, shift = whole_lattice_block(shape, n, *params)
        before = csr_bytes(A)
        lu = _factor(A, shift)
        shifted = A - shift * scipy.sparse.identity(A.shape[0], format="csr")
        b = np.random.default_rng(n).standard_normal(A.shape[0])
        x = lu.solve(b)
        eta = np.abs(shifted @ x - b).max() / (
            abs(shifted).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
        assert eta <= BACKWARD_ERROR
        # the block itself is left as it was
        assert csr_bytes(A) == before

    def test_factor_path_follows_the_bandwidth(self):
        # the n = 48 disk is 47 nodes wide, the n = 128 square 127: one on
        # each side of the widest band factored by Cholesky
        disk, disk_shift = whole_lattice_block("disk", 48, 1.0)
        square, square_shift = whole_lattice_block("square", 128, 1.0)
        assert half_bandwidth(disk) <= eigensolve._BAND_MAX < half_bandwidth(square)
        assert isinstance(_factor(disk, disk_shift), eigensolve._BandedCholesky)
        assert isinstance(_factor(square, square_shift), scipy.sparse.linalg.SuperLU)

    def test_shift_above_lambda_1_raises(self, square_eig_128):
        dom = build_domain("disk", 48, 1.0)
        A, _ = coo_laplacian(dom, dom.mask)
        lam = first_dirichlet_eig(dom, tol=1e-9).lam
        assert half_bandwidth(A) <= eigensolve._BAND_MAX
        _factor(A, 0.999 * lam)
        with pytest.raises(ConvergenceError, match=r"leading minor of order \d+ of 1789"):
            _factor(A, 1.001 * lam)
        # the whole n = 128 square block (kd 127) takes SuperLU, whose
        # pivots _factor checks
        dom, res = square_eig_128
        A, _ = coo_laplacian(dom, dom.mask)
        assert half_bandwidth(A) > eigensolve._BAND_MAX
        _factor(A, 0.999 * res.lam)
        with pytest.raises(ConvergenceError, match="SuperLU pivot"):
            _factor(A, 1.001 * res.lam)
        # SuperLU without pivoting factors the indefinite block silently
        superlu_factor(A, 1.001 * res.lam)

    def test_independent_of_blas_thread_count(self):
        # blocked dpbtrf calls level-3 BLAS from kd = 32, which the n = 128
        # disk's folded block reaches; every block solve of a seed-11
        # sweep_rect48 unit is compared as well
        assert folded_kd("disk", 128, 1.0) >= 32
        script = (
            "from segpart import partition\n"
            "solves = [first_dirichlet_eig(build_domain('disk', 128, 1.0), tol=1e-9)]\n"
            "def spy(*args, **kw):\n"
            "    solves.append(first_dirichlet_eig(*args, **kw))\n"
            "    return solves[-1]\n"
            "partition.first_dirichlet_eig = spy\n"
            "dom = build_domain('rectangle', 48, 2.0, 1.0)\n"
            "prob = partition.PartitionProblem(dom, k=2, r=1 / 8, seed=11, tol_eig=1e-8)\n"
            "partition.run_sweep(prob, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.0])\n"
            "print(json.dumps([digest(r) for r in solves]))\n"
        )
        runs = [with_blas_threads(script, threads) for threads in ("1", None)]
        assert len(runs[0]) > 10 and runs[0][0][2] > 0
        assert runs[0] == runs[1]

    def test_sweep_solves_match_superlu(self):
        # every block solve of the seed-11 n = 48 sweep, solved again with
        # the SuperLU factor: lambda to 1e-12 relative, the same support
        from segpart import partition

        dom = build_domain("rectangle", 48, 2.0, 1.0)
        prob = partition.PartitionProblem(dom, k=2, r=1 / 8, seed=11, tol_eig=1e-8)
        solves, banded = [], []
        real_eig, real_factor = first_dirichlet_eig, eigensolve._factor

        def spy_eig(domain, allowed, **kw):
            solves.append((allowed, kw, real_eig(domain, allowed, **kw)))
            return solves[-1][2]

        def spy_factor(block, shift=0.0):
            lu = real_factor(block, shift)
            banded.append(isinstance(lu, eigensolve._BandedCholesky))
            return lu

        with mock.patch.object(partition, "first_dirichlet_eig", spy_eig), \
                mock.patch.object(eigensolve, "_factor", spy_factor):
            partition.run_sweep(prob, [1 / 8, 1 / 16, 1 / 32, 1 / 64, 0.0])
        assert len(banded) > 5 and all(banded)
        with mock.patch.object(eigensolve, "_factor", superlu_factor):
            for allowed, kw, got in solves:
                ref = first_dirichlet_eig(dom, allowed, **kw)
                assert got.lam == pytest.approx(ref.lam, rel=1e-12, abs=0)
                assert np.array_equal(partition.support_mask(got.field, prob.tau).nodes,
                                      partition.support_mask(ref.field, prob.tau).nodes)


def beside_its_image(side: int) -> np.ndarray:
    """A plus of two-node-wide arms on an even side: the nodes next to the
    centre each have their i and j mirror images as neighbours, so a folded
    diagonal entry sums three terms; on an odd side the arms' middle column
    sees one orbit on both sides."""
    box = np.zeros((side, side), dtype=bool)
    mid = slice(side // 2 - 1, side // 2 + 1 + side % 2)
    box[mid, :] = box[:, mid] = True
    return box


class TestLatticeBlock:
    @settings(max_examples=150, deadline=None)
    @given(case=st.one_of(mirrored_masks(), row_run_masks(), random_masks()))
    def test_blocks_match_the_reference_path(self, case):
        dom, nodes = case
        assert_blocks_match(dom, bounding_box(largest_component(nodes)))

    @pytest.mark.parametrize("kind", ["i", "j", "both", "diagonal", "8"])
    @pytest.mark.parametrize("side", [9, 10])
    def test_named_mirrors_on_odd_and_even_sides(self, kind, side):
        # the box is the set's bounding box, and the set has exactly the
        # mirrors its kind names
        box = mirror_box(kind, side)
        assert bounding_box(box).shape == (side, side)
        mirrors, group = {"i": ((1, 0, 0), 2), "j": ((0, 1, 0), 2), "both": ((1, 1, 0), 4),
                          "diagonal": ((0, 0, 1), 2), "8": ((1, 1, 1), 8)}[kind]
        assert (np.array_equal(box, box[::-1]), np.array_equal(box, box[:, ::-1]),
                np.array_equal(box, box.T)) == tuple(map(bool, mirrors))
        orbits = assert_blocks_match(GridDomain.raw(side, side, 0.1), box)
        assert box.sum() <= group * orbits[1].size

    @pytest.mark.parametrize("side", [4, 5, 6, 7])
    def test_nodes_beside_their_own_images(self, side):
        dom = GridDomain.raw(side, side, 0.1)
        box = beside_its_image(side)
        orbits = assert_blocks_match(dom, box)
        # representatives' rows repeat orbits, so the fold merges entries
        kept = np.diff(coo_laplacian(dom, box)[0].indptr)[orbits[1]]
        assert orbits[2].max() == 8
        assert eigensolve._lattice_block(box, dom.h, orbits).nnz < kept.sum()

    def test_disk_n128(self):
        dom = build_domain("disk", 128, 1.0)
        box = bounding_box(dom.mask)
        orbit, reps, _ = assert_blocks_match(dom, box)
        assert 7 * reps.size <= box.sum() <= 8 * reps.size

    @settings(max_examples=80, deadline=None)
    @given(case=st.one_of(mirrored_masks(), random_masks()), positive=st.booleans())
    def test_stencil_is_the_csr_matvec(self, case, positive):
        dom, nodes = case
        box = bounding_box(largest_component(nodes))
        x = np.random.default_rng(int(box.sum())).standard_normal(int(box.sum()))
        x = np.abs(x) if positive else x
        got = eigensolve._stencil(x, box, dom.h)
        assert np.array_equal(got, coo_laplacian(dom, box)[0] @ x)

    @pytest.mark.parametrize("shape", ["square", "disk"])
    def test_stencil_is_the_csr_matvec_at_n128(self, shape):
        dom = build_domain(shape, 128, 1.0)
        box = bounding_box(dom.mask)
        for x in (eigensolve._box_start(box),
                  np.random.default_rng(7).standard_normal(int(box.sum()))):
            got = eigensolve._stencil(x, box, dom.h)
            assert got.tobytes() == (coo_laplacian(dom, box)[0] @ x).tobytes()

    def test_box_filling_components_build_no_matrix(self):
        square = build_domain("square", 128, 1.0)
        disk = build_domain("disk", 48, 1.0)
        boxed = np.zeros(disk.mask.shape, dtype=bool)
        boxed[14:26, 20:27] = True
        refs = [reference_eig(square, square.mask, 1e-9), reference_eig(disk, boxed, 1e-9)]

        def refuse(*args, **kw):
            raise AssertionError("a sparse matrix was built")

        with mock.patch.object(eigensolve.sparse, "csr_matrix", refuse):
            got = [first_dirichlet_eig(square, tol=1e-9),
                   first_dirichlet_eig(disk, Mask(disk, boxed), tol=1e-9)]
        for res, ref in zip(got, refs):
            assert res.iterations == 0
            assert exact_result(res) == exact_result(ref)

    @staticmethod
    def assert_largest_component_matches(dom, nodes):
        part = largest_component(nodes)
        res = first_dirichlet_eig(dom, Mask(dom, part), tol=1e-9)
        assert exact_result(res) == exact_result(reference_eig(dom, part, 1e-9))

    def test_folded_solve_builds_only_its_block(self):
        # no whole-lattice Laplacian, no P: the folded block is the one matrix
        dom = build_domain("disk", 64, 1.0)
        built = []
        real = eigensolve.sparse.csr_matrix

        def counting(*args, **kw):
            built.append(real(*args, **kw))
            return built[-1]

        def refuse(*args, **kw):
            raise AssertionError("the whole-lattice Laplacian was built")

        with mock.patch.object(eigensolve.sparse, "csr_matrix", counting), \
                mock.patch.object(eigensolve, "masked_laplacian", refuse):
            res = first_dirichlet_eig(dom, tol=1e-9)
        assert res.iterations > 0 and len(built) == 1
        assert 7 * built[0].shape[0] <= dom.mask.sum() <= 8 * built[0].shape[0]

    @settings(max_examples=80, deadline=None)
    @given(case=st.one_of(mirrored_masks(), row_run_masks(), random_masks()))
    def test_solve_matches_the_reference_path(self, case):
        self.assert_largest_component_matches(*case)

    @pytest.mark.parametrize("shape, params", [("disk", (1.0,)), ("disk_minus_ball", (2.0, 1.0)),
                                               ("l_shape", (1.0,)), ("rectangle", (2.0, 1.0))])
    def test_domains_match_the_reference_path(self, shape, params):
        dom = build_domain(shape, 48, *params)
        self.assert_largest_component_matches(dom, dom.mask)

    def test_n128_matches_the_reference_path(self, disk_eig_128, square_eig_128):
        for dom, res in (disk_eig_128, square_eig_128):
            assert exact_result(res) == exact_result(reference_eig(dom, dom.mask, 1e-9))


def raster_orbits(box: np.ndarray):
    """The fold with its orbits numbered in the raster order of their first
    nodes under every group, the diagonal's too, and the trivial group on a
    box without a mirror: the numbering that anti-diagonals replaced under
    the diagonal, whose band is wider."""
    return searchsorted_orbits(box, antidiagonal=False) or trivial_orbits(box)


def folded_kd(shape, n, *params, orbits=eigensolve._mirror_orbits) -> int:
    """kd of the block of a whole domain's box, folded on ``orbits``."""
    dom = build_domain(shape, n, *params)
    box = bounding_box(dom.mask)
    return half_bandwidth(eigensolve._lattice_block(box, dom.h, orbits(box)))


def assert_matches_raster_fold(dom, nodes):
    """A solve on ``nodes`` against the same solve on the raster-numbered
    fold: lambda within 1e-13 relative, the same iterations and support."""
    res = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)
    with mock.patch.object(eigensolve, "_mirror_orbits", raster_orbits):
        ref = first_dirichlet_eig(dom, Mask(dom, nodes), tol=1e-9)
    assert res.lam == pytest.approx(ref.lam, rel=1e-13, abs=0)
    assert res.iterations == ref.iterations
    assert np.array_equal(res.field.values > 0, ref.field.values > 0)


class TestAntidiagonalOrder:
    """Orbits of a fold with the diagonal are numbered along anti-diagonals,
    which narrows the band; nothing else moves beyond rounding."""

    @pytest.mark.parametrize("shape, n, kd, raster_kd", [
        ("disk", 48, 13, 17), ("disk", 128, 33, 46), ("disk", 256, 65, 91),
        ("l_shape", 48, 24, 46), ("l_shape", 128, 64, 126)])
    def test_band_narrows(self, shape, n, kd, raster_kd):
        assert folded_kd(shape, n, 1.0) == kd
        assert folded_kd(shape, n, 1.0, orbits=raster_orbits) == raster_kd

    @pytest.mark.parametrize("shape, n", [("disk", 48), ("disk", 128), ("l_shape", 48),
                                          ("l_shape", 128)])
    def test_domains_match_the_raster_fold(self, shape, n):
        dom = build_domain(shape, n, 1.0)
        assert_matches_raster_fold(dom, dom.mask)

    @settings(max_examples=60, deadline=None)
    @given(case=mirrored_masks())
    def test_mirrored_masks_match_the_raster_fold(self, case):
        dom, nodes = case
        assert_matches_raster_fold(dom, largest_component(nodes))


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

    def test_bisection_ends_at_the_sign_change(self):
        # each zero is the first float where J_nu <= 0, and lies within an ulp
        # or two of brentq run to its last bit; orders past 5 are the
        # dimensions up to 40 that the radial ground state reaches
        for nu in [*np.linspace(0.0, 5.0, 2001), 5.5, 9.0, 19.0]:
            z = eigensolve._first_zero(nu)
            assert scipy.special.jv(nu, np.nextafter(z, 0.0)) > 0 >= scipy.special.jv(nu, z)
            lo = math.sqrt(nu * (nu + 2.0))
            hi = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
            oracle = scipy.optimize.brentq(
                lambda x: scipy.special.jv(nu, x), lo, hi, xtol=1e-300)
            assert abs(z - oracle) <= 1e-15 * z

    @pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-14])
    def test_brent_steps_as_brentq(self, tol):
        # brentq stopped at xtol lands within its own documented bound,
        # xtol + 4 eps |x|, of the bisection zero in the same bracket
        rtol = 4.0 * np.finfo(float).eps
        for nu in [*np.linspace(0.0, 5.0, 2001), 5.5, 9.0, 19.0]:
            z = eigensolve._first_zero(nu)
            lo = math.sqrt(nu * (nu + 2.0))
            hi = math.sqrt(nu + 1.0) * (math.sqrt(nu + 2.0) + 1.0)
            oracle = scipy.optimize.brentq(lambda x: scipy.special.jv(nu, x), lo, hi, xtol=tol)
            assert abs(z - oracle) <= tol + rtol * z

    def test_nan_order_raises(self):
        with pytest.raises(ValueError, match="not negative"):
            eigensolve._first_zero(math.nan)


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
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                radial_ground_state(2, bad)


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
        with pytest.raises(ValueError, match="r must be finite and positive"):
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
