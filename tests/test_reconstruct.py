import itertools
import tracemalloc

import numpy as np
import pytest

from stochmaxwell import cgo
from stochmaxwell.capacity import CapacityOperator, boundary_functional
from stochmaxwell.cgo import (
    CgoRemainderSolver,
    ConjugatedResolvent,
    build_zeta_eta,
    cgo_on_sphere,
    solve_cgo_remainder,
)
from stochmaxwell.ensemble import generate_ensemble
from stochmaxwell.geometry import (
    Bump,
    ConfigurationError,
    Grid3,
    MediumSpec,
    SourceStrength,
    SphereMesh,
    evaluate_on_grid,
)
from stochmaxwell.sphharm import VshBasis
from stochmaxwell.reconstruct import (
    DUAL_BLOCK,
    PRODUCT_COLUMNS,
    build_xi_lattice,
    dual_functional_vector,
    fourier_synthesis,
    hermitian_symmetrize,
    measure_epsilon,
    reconstruct_sigma,
    select_parameters,
)

from conftest import K_DESK, RP_DESK, rel_err


@pytest.fixture(scope="module")
def grid():
    return Grid3.for_ball(RP_DESK, 33)


@pytest.fixture(scope="module")
def wide_sigma():
    return SourceStrength((Bump((0.0, 0.0, 0.0), 0.95, 0.1),), ball_radius=1.0)


@pytest.fixture(scope="module")
def hom_medium():
    return MediumSpec(ball_radius=1.0)


@pytest.fixture(scope="module")
def small_ensemble(grid, wide_sigma, hom_medium, desk_capacity):
    mesh = desk_capacity.basis.mesh
    return generate_ensemble(
        K_DESK, hom_medium, wide_sigma, grid, mesh, M=400, master_seed=77
    )


@pytest.fixture(scope="module")
def small_inhomogeneous():
    """An inhomogeneous reconstruction small enough to repeat: 8^3 grid,
    six random traces on an lmax-6 mesh, t = 5 and 389 xi nodes."""
    grid = Grid3.for_ball(RP_DESK, 8)
    medium = MediumSpec((Bump((0.0, 0.0, 0.0), 0.9, 0.1),), ball_radius=1.0)
    assert np.any(evaluate_on_grid(medium, grid).values)
    capacity = CapacityOperator(K_DESK, VshBasis(SphereMesh(1.0, 6), 6))
    rng = np.random.default_rng(8)
    shape = (6, capacity.basis.mesh.n_nodes, 3)
    traces = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kwargs = dict(k=K_DESK, R_prime=RP_DESK, grid=grid, medium=medium, epsilon=0.1)
    return traces, capacity, kwargs


def _plane_pair(xi, t, mesh):
    """Leading coefficient and boundary data of the conjugate CGO pair for a
    homogeneous medium."""
    zeta, eta, lead = build_zeta_eta(np.asarray(xi, float), t, K_DESK)
    data = []
    for z, e in zip(zeta, eta):
        phase = np.exp(1j * mesh.nodes @ z)
        data.append(
            (phase[:, None] * e[None, :], phase[:, None] * np.cross(1j * z, e)[None, :])
        )
    return lead, data


def _correlation(traces, data, capacity):
    """Sample mean and standard error of B_1 B_2 over the ensemble, where
    B_j = sum_n trace_n . D_j,n pairs the frame components of each trace with
    the dual vector of the j-th member's boundary data."""
    mesh = capacity.basis.mesh
    flat = mesh.to_frame(traces).reshape(len(traces), -1)
    b1, b2 = (flat @ dual_functional_vector(capacity, *mesh.to_frame(np.stack(d))).ravel()
              for d in data)
    prods = b1 * b2
    return prods.mean(), prods.std(ddof=1) / np.sqrt(len(prods))


def _cartesian_epsilon(traces, capacity):
    """The three kernel norms by their definition: the sums of the 3x3
    Cartesian component norms of the (3N)^2 Grams of the weighted traces and
    of their capacity images."""
    M, N = traces.shape[:2]
    sw = np.sqrt(capacity.basis.mesh.weights)[None, :, None]
    X0 = (traces * sw).reshape(M, -1)
    X1 = (capacity.apply(traces) * sw).reshape(M, -1)

    def norm(A, B):
        K = ((A.T @ B) / M).reshape(N, 3, N, 3)
        return sum(np.linalg.norm(K[:, i, :, j]) for i in range(3) for j in range(3))

    return norm(X0, X0), norm(X1, X0), norm(X1, X1)


def _reconstruct(traces, capacity, grid, medium, k=K_DESK, **kwargs):
    return reconstruct_sigma(
        traces, capacity, k=k, R_prime=RP_DESK, medium=medium, grid=grid, **kwargs
    )


class TestDualVector:
    def test_reproduces_boundary_functional(self, desk_capacity):
        """The folded dual vector, paired with the frame components of a
        trace, gives the identical value as the explicit surface functional
        for arbitrary tangential traces and test data, column by column for
        stacked test data."""
        mesh = desk_capacity.basis.mesh
        rng = np.random.default_rng(21)
        U, curlU = (
            rng.standard_normal((mesh.n_nodes, 3))
            + 1j * rng.standard_normal((mesh.n_nodes, 3))
            for _ in range(2)
        )
        dual = dual_functional_vector(desk_capacity, mesh.to_frame(U), mesh.to_frame(curlU))
        for _ in range(5):
            comps = rng.standard_normal((mesh.n_nodes, 2)) + 1j * rng.standard_normal(
                (mesh.n_nodes, 2)
            )
            tr = mesh.from_frame(comps)
            want = boundary_functional(
                tr, desk_capacity.apply(tr), U, curlU, K_DESK, mesh
            )
            got = np.sum(comps * dual)
            assert abs(got - want) < 1e-12 * abs(want)
        # a (3, N, 3) stack of test data gives each column's own dual vector
        Us, curlUs = (
            rng.standard_normal((3, mesh.n_nodes, 3))
            + 1j * rng.standard_normal((3, mesh.n_nodes, 3))
            for _ in range(2)
        )
        us, curlus = mesh.to_frame(Us), mesh.to_frame(curlUs)
        stacked = dual_functional_vector(desk_capacity, us, curlus)
        assert stacked.shape == (3, mesh.n_nodes, 2)
        for c in range(3):
            want = dual_functional_vector(desk_capacity, us[c], curlus[c])
            assert rel_err(stacked[c], want) < 1e-13

    def test_matches_coefficient_route(self, desk_capacity):
        """The dual through the transposed azimuthal convolution equals the
        one through the harmonic coefficients: bilinear analysis of w U,
        the transposed per-mode multiplier, synthesis."""
        basis = desk_capacity.basis
        mesh, K = basis.mesh, basis.n_modes
        rng = np.random.default_rng(22)
        u, curlu = (
            rng.standard_normal((4, mesh.n_nodes, 2))
            + 1j * rng.standard_normal((4, mesh.n_nodes, 2))
            for _ in range(2)
        )
        # columns (A00, A10) and (A01, A11) of the per-mode 2x2 multipliers
        a = desk_capacity.apply_coeffs(np.repeat([1.0, 0.0], K).astype(complex))
        b = desk_capacity.apply_coeffs(np.repeat([0.0, 1.0], K).astype(complex))
        d = np.conj(basis.decompose(np.conj(u)))  # sum_n w_n Phi_p(x_n) . u_n
        e = np.concatenate([a[:K] * d[:, :K] + a[K:] * d[:, K:],
                            b[:K] * d[:, :K] + b[K:] * d[:, K:]], axis=1)
        w = mesh.weights[:, None]
        want = -(1j * K_DESK * w * np.conj(basis.synthesize(np.conj(e))) + w * curlu)
        assert rel_err(dual_functional_vector(desk_capacity, u, curlu), want) < 1e-12


class TestCorrelation:
    def test_zero_traces_give_zero(self, grid, hom_medium, desk_capacity):
        mesh = desk_capacity.basis.mesh
        zeros = np.zeros((8, mesh.n_nodes, 3), dtype=complex)
        result = _reconstruct(zeros, desk_capacity, grid, hom_medium, epsilon=0.1)
        assert np.all(result.sigma_hat == 0.0)
        assert result.sample_count == 8

    def test_empty_ensemble_rejected(self, grid, hom_medium, desk_capacity):
        """Rejected before any estimate even when epsilon is given, so the
        empty check does not lean on measure_epsilon."""
        mesh = desk_capacity.basis.mesh
        with pytest.raises(ValueError):
            _reconstruct(
                np.zeros((0, mesh.n_nodes, 3), dtype=complex),
                desk_capacity,
                grid,
                hom_medium,
                epsilon=0.1,
            )

    def test_pooling_halves_matches_full(self, small_ensemble, desk_capacity):
        """The estimator is a plain sample mean, so pooling two half-ensemble
        estimates reproduces the full-ensemble value exactly."""
        mesh = desk_capacity.basis.mesh
        _, data = _plane_pair([1.0, -0.5, 0.0], 5.0, mesh)
        full, _ = _correlation(small_ensemble, data, desk_capacity)
        a, _ = _correlation(small_ensemble[:200], data, desk_capacity)
        b, _ = _correlation(small_ensemble[200:], data, desk_capacity)
        assert abs(0.5 * (a + b) - full) < 1e-12 * abs(full)

    def test_isometry_against_volume_integral(
        self, small_ensemble, grid, wide_sigma, desk_capacity
    ):
        """Empirical correlation of the two boundary functionals matches
        -k^2 int sigma U1 . U2 dx within 3 Monte Carlo standard errors."""
        mesh = desk_capacity.basis.mesh
        sig = evaluate_on_grid(wide_sigma, grid).values.real
        nodes = grid.nodes()
        for xi in ([0.0, 0.0, 0.0], [1.0, 0.5, -0.5]):
            lead, data = _plane_pair(xi, 5.0, mesh)
            mean, stderr = _correlation(small_ensemble, data, desk_capacity)
            phase = np.exp(-1j * np.tensordot(np.asarray(xi, float), nodes, axes=(0, 0)))
            volume = -K_DESK ** 2 * lead * np.sum(sig * phase) * grid.cell_volume
            assert abs(mean - volume) < 3.0 * stderr

    def test_wavenumber_mismatch_rejected(
        self, small_ensemble, grid, hom_medium, desk_capacity
    ):
        with pytest.raises(ValueError):
            _reconstruct(small_ensemble, desk_capacity, grid, hom_medium, k=3.0)


class TestEpsilon:
    def test_quadratic_in_trace_scale(self, small_ensemble, desk_capacity):
        """Scaling every trace by alpha scales each kernel norm (and epsilon)
        by exactly alpha^2: the kernels are outer products of the data."""
        base = measure_epsilon(small_ensemble[:64], desk_capacity)
        scaled = measure_epsilon(0.1 * small_ensemble[:64], desk_capacity)
        assert scaled.epsilon == pytest.approx(1e-2 * base.epsilon, rel=1e-12)
        assert scaled.norm2 == pytest.approx(1e-2 * base.norm2, rel=1e-12)

    def test_stabilizes_with_sample_count(self, small_ensemble, desk_capacity):
        a = measure_epsilon(small_ensemble[:200], desk_capacity).epsilon
        b = measure_epsilon(small_ensemble, desk_capacity).epsilon
        assert abs(a - b) / b < 0.25

    def test_needs_two_realizations(self, small_ensemble, desk_capacity):
        with pytest.raises(ValueError):
            measure_epsilon(small_ensemble[:1], desk_capacity)

    def test_matches_cartesian_definition(self, small_ensemble, desk_capacity):
        """The three norms taken from the one tangential Gram equal those of
        the three Cartesian (3N)^2 Grams, for a homogeneous ensemble and for
        one scattered by a medium bump."""
        grid = Grid3.for_ball(RP_DESK, 10)
        medium = MediumSpec((Bump((0.0, 0.1, 0.0), 0.6, 0.05),), ball_radius=1.0)
        assert np.any(evaluate_on_grid(medium, grid).values)
        capacity = CapacityOperator(K_DESK, VshBasis(SphereMesh(1.0, 6), 6))
        sigma = SourceStrength((Bump((0.0, 0.0, 0.0), 0.95, 0.1),), ball_radius=1.0)
        scattered = generate_ensemble(
            K_DESK, medium, sigma, grid, capacity.basis.mesh, M=40, master_seed=5
        )
        for traces, cap in ((small_ensemble, desk_capacity), (scattered, capacity)):
            got = measure_epsilon(traces, cap)
            want = _cartesian_epsilon(traces, cap)
            for g, w in zip((got.norm1, got.norm2, got.norm3), want):
                assert g == pytest.approx(w, rel=1e-12)

    def test_peak_memory_is_tangential_copy_and_kernels(self, small_ensemble, desk_capacity):
        """The traces are held once, as their (M, 2N) frame components, and
        the kernels are (2N)^2 with at most three of them live at once: no
        (M, 3N) weighted copy and no (3N)^2 Gram."""
        M, N = small_ensemble.shape[:2]
        tracemalloc.start()
        try:
            measure_epsilon(small_ensemble, desk_capacity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tangential = M * 2 * N * 16
        kernel = (2 * N) ** 2 * 16
        assert peak < tangential + 3 * kernel, (peak, tangential, kernel)


class TestParameterSchedule:
    def test_log_branch(self):
        # -log(eps) / (2 R') dominates once eps is small enough
        eps = float(np.exp(-2.0 * 1.3 * 6.0))
        t, rho = select_parameters(eps, s=1.0, R_prime=1.3, k=2.0)
        assert t == pytest.approx(6.0)
        assert rho == pytest.approx(6.0 ** (2.0 / 9.0))

    def test_admissibility_clamp(self):
        # moderate eps: the clamp t >= M1 + 2k keeps every |xi| <= rho valid
        t, rho = select_parameters(0.1, s=1.0, R_prime=1.3, k=2.0)
        assert t == pytest.approx(5.0)
        assert rho < 2.0 * t

    def test_t_max_cap(self):
        t, _ = select_parameters(1e-30, s=1.0, R_prime=1.3, k=2.0, t_max=8.0)
        assert t == 8.0

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            select_parameters(0.0, 1.0, 1.3, 2.0)
        with pytest.raises(ConfigurationError):
            select_parameters(1.5, 1.0, 1.3, 2.0)

    @pytest.mark.parametrize("t_max", [0.0, -1.0])
    def test_non_positive_t_max_rejected(self, t_max):
        """A cap t_max <= 0 is refused by name; a negative one took a
        fractional power of a negative t before."""
        with pytest.raises(ConfigurationError, match="t_max"):
            select_parameters(0.1, 1.0, 1.3, 2.0, t_max=t_max)


class TestSigmaHatEstimator:
    def test_inverts_known_leading(self, small_ensemble, grid, hom_medium, desk_capacity):
        """Each sample at nodes 0 .. n // 2 is -mean(B_1 B_2) / (k^2 lead),
        and each node beyond holds the conjugate of its antipode's."""
        traces = small_ensemble[:100]
        result = _reconstruct(
            traces, desk_capacity, grid, hom_medium, epsilon=0.1, rho_override=1.5
        )
        mesh = desk_capacity.basis.mesh

        def sample(xi):
            lead, data = _plane_pair(xi, result.t, mesh)
            mean, _ = _correlation(traces, data, desk_capacity)
            return (-mean / K_DESK ** 2) / lead

        n = len(result.xi_nodes)
        # two columns per xi at one frame: the last estimated xi lies past the
        # first block
        assert 2 * (n // 2 - 1) >= DUAL_BLOCK
        for i in (0, n // 3, n // 2 - 1):
            want = sample(result.xi_nodes[i])
            assert result.sigma_hat[i] == pytest.approx(want, rel=1e-10)
            assert result.sigma_hat[n - 1 - i] == pytest.approx(np.conj(want), rel=1e-10)
        # xi = 0 keeps the real part of its estimate
        want = sample(result.xi_nodes[n // 2]).real
        assert result.sigma_hat[n // 2] == pytest.approx(want, rel=1e-10)

    def test_guard_near_vanishing_leading(self, small_ensemble, grid, hom_medium, desk_capacity):
        """A cutoff just inside |xi| = 2t, where the leading coefficient
        nearly vanishes, is rejected; epsilon = 0.1 gives t = 5."""
        with pytest.raises(ConfigurationError):
            _reconstruct(
                small_ensemble,
                desk_capacity,
                grid,
                hom_medium,
                epsilon=0.1,
                rho_override=2.0 * 5.0 * (1.0 - 1e-9),
            )


class TestXiLattice:
    def test_minimum_node_count(self):
        for rho in (0.5, 1.2, 2.0):
            nodes, dxi = build_xi_lattice(rho, RP_DESK)
            assert len(nodes) >= 7 ** 3 / 2  # ball clip of a >=9^3 cube
            assert np.all(np.linalg.norm(nodes, axis=1) <= rho + 1e-9)
            assert dxi <= rho / 4.5 + 1e-12

    def test_spacing_capped_by_period(self):
        _, dxi = build_xi_lattice(50.0, RP_DESK)
        assert dxi == pytest.approx(np.pi / RP_DESK)

    def test_contains_origin_and_antipodes(self):
        nodes, dxi = build_xi_lattice(2.0, RP_DESK)
        idx = {tuple(np.rint(n / dxi).astype(int)) for n in nodes}
        assert (0, 0, 0) in idx
        assert all((-i, -j, -l) in idx for (i, j, l) in idx)

    def test_invalid_rho(self):
        with pytest.raises(ConfigurationError):
            build_xi_lattice(0.0, RP_DESK)

    def test_antipode_is_the_reversed_node(self):
        """Node n - 1 - i is exactly minus node i and node n // 2 is the
        origin, on the 389-node lattices below rho = 4.5 pi / R' and on a
        larger one above."""
        sizes = []
        for rho in (1.43, 1.5, 3.0, 5.0, 7.7, 12.0):
            nodes, _ = build_xi_lattice(rho, RP_DESK)
            assert np.array_equal(nodes[::-1], -nodes)
            assert not np.any(nodes[len(nodes) // 2])
            sizes.append(len(nodes))
        assert 12.0 > 4.5 * np.pi / RP_DESK
        assert sizes[:-1] == [389] * 5 and sizes[-1] > 389


class TestHermitianSymmetrize:
    def test_output_is_hermitian(self):
        """The estimates stay at nodes 0 .. n // 2 (xi = 0 keeps its real
        part), and every node holds the conjugate of its antipode."""
        nodes, dxi = build_xi_lattice(1.5, RP_DESK)
        h = len(nodes) // 2
        rng = np.random.default_rng(31)
        vals = rng.standard_normal(h + 1) + 1j * rng.standard_normal(h + 1)
        out = hermitian_symmetrize(nodes, vals)
        assert np.array_equal(out[:h], vals[:h]) and out[h] == vals[h].real
        lookup = {tuple(np.rint(n / dxi).astype(int)): i for i, n in enumerate(nodes)}
        for i, n in enumerate(nodes):
            j = lookup[tuple(-np.rint(n / dxi).astype(int))]
            assert out[i] == pytest.approx(np.conj(out[j]))

    def test_fixes_nothing_when_already_hermitian(self, grid):
        nodes, dxi = build_xi_lattice(1.5, RP_DESK)
        # exact transform of a real field is Hermitian
        vals = np.exp(-0.5 * np.einsum("ni,ni->n", nodes, nodes)) + 0j
        out = hermitian_symmetrize(nodes, vals[: len(nodes) // 2 + 1])
        assert np.allclose(out, vals, atol=1e-15)

    def test_rejects_lattice_out_of_antipodal_order(self):
        nodes, _ = build_xi_lattice(1.5, RP_DESK)
        vals = np.ones(len(nodes) // 2 + 1, dtype=complex)
        shuffled = nodes[np.random.default_rng(5).permutation(len(nodes))]
        no_origin = np.delete(nodes, len(nodes) // 2, axis=0)
        for bad in (shuffled, no_origin):
            with pytest.raises(ValueError):
                hermitian_symmetrize(bad, vals)
        with pytest.raises(ValueError):  # estimates past the origin
            hermitian_symmetrize(nodes, np.ones(len(nodes), dtype=complex))


class TestFourierSynthesis:
    def test_exact_samples_recover_wide_bump(self, grid, wide_sigma):
        """With exact Fourier samples the only error is low-pass truncation;
        it shrinks as the cutoff grows."""
        vals = evaluate_on_grid(wide_sigma, grid).values.real
        nodes = grid.nodes()
        errs = {}
        for rho in (5.0, 8.0):
            xi_nodes, dxi = build_xi_lattice(rho, RP_DESK)
            sh = np.array(
                [
                    np.sum(vals * np.exp(-1j * np.tensordot(xi, nodes, axes=(0, 0))))
                    * grid.cell_volume
                    for xi in xi_nodes
                ]
            )
            rec, residue = fourier_synthesis(xi_nodes, sh, dxi, grid)
            assert residue < 1e-12
            errs[rho] = rel_err(rec.values.real, vals)
        assert errs[8.0] < 0.2
        assert errs[8.0] < errs[5.0]


class TestReconstructSigma:
    def test_end_to_end_homogeneous(
        self, small_ensemble, grid, wide_sigma, hom_medium, desk_capacity
    ):
        result = reconstruct_sigma(
            small_ensemble,
            desk_capacity,
            k=K_DESK,
            R_prime=RP_DESK,
            medium=hom_medium,
            grid=grid,
            rho_override=5.0,
            n_frames=8,
            ground_truth=wide_sigma,
        )
        # sigma_hat(0) is the total mass of sigma
        origin = int(np.argmin(np.linalg.norm(result.xi_nodes, axis=1)))
        mass = float(
            np.sum(evaluate_on_grid(wide_sigma, grid).values.real) * grid.cell_volume
        )
        assert abs(result.sigma_hat[origin] - mass) < 4.0 * result.stderr[origin]
        # Monte Carlo noise at M=400 on top of the 0.26 truncation floor
        assert result.rel_l2_error < 0.9
        assert result.imag_residue < 1e-10
        assert result.t == 5.0  # admissibility clamp at this data size

    def test_inhomogeneous_matches_column_reference(self, small_inhomogeneous):
        """The blocked inhomogeneous route (one remainder solver, resolvents
        lent across symmetry orbits, stacked sphere evaluation) gives the sigma_hat of a
        column-by-column reference: one `solve_cgo_remainder`, single-column
        `cgo_on_sphere` and `dual_functional_vector` per (xi, member), then
        the correlation, at the estimated nodes 0 .. n // 2 and filled by
        conjugation beyond."""
        traces, capacity, kwargs = small_inhomogeneous
        grid, medium, mesh = kwargs["grid"], kwargs["medium"], capacity.basis.mesh
        result = reconstruct_sigma(traces, capacity, **kwargs)
        flat = mesh.to_frame(traces).reshape(len(traces), -1)

        def column(xi, w):
            sol = solve_cgo_remainder(xi, result.t, K_DESK, w, medium, grid)
            U, curlU = cgo_on_sphere(sol.zeta[None], sol.eta[None], sol.W[None], grid, mesh)
            return flat @ dual_functional_vector(capacity, U[0], curlU[0]).ravel()

        def sample(xi):
            """The estimate at xi and its standard error."""
            lead = build_zeta_eta(xi, result.t, K_DESK)[2]
            prods = column(xi, 1) * column(xi, 2)
            scale = K_DESK ** 2 * lead
            return -np.mean(prods) / scale, prods.std(ddof=1) / np.sqrt(len(prods)) / abs(scale)

        n = len(result.xi_nodes)
        # the first and last estimated xi are solved in different dual
        # blocks; n // 2 is xi = 0, and node n - 1 is the antipode of node 0
        assert 2 * (n // 2 + 1) > 2 * DUAL_BLOCK
        ids = [0, 1, n // 5, n // 2 - 1, n // 2, n - 1]
        est = {i: sample(result.xi_nodes[i]) for i in ids[:5]}
        est[n // 2] = (est[n // 2][0].real, est[n // 2][1])
        est[n - 1] = (np.conj(est[0][0]), est[0][1])
        want = np.array([est[i][0] for i in ids])
        want_se = np.array([est[i][1] for i in ids])
        scale = np.max(np.abs(result.sigma_hat))
        assert np.max(np.abs(result.sigma_hat[ids] - want)) <= 1e-12 * scale
        assert np.max(np.abs(result.stderr[ids] - want_se) / want_se) <= 1e-12
        # the remainder matters: the plane-wave estimate is far off
        plane = reconstruct_sigma(traces, capacity, **dict(kwargs, medium=MediumSpec(ball_radius=1.0)))
        assert np.max(np.abs(plane.sigma_hat[ids] - want)) > 1e-3 * scale

    def test_orbit_lending_matches_direct_builds(self, small_inhomogeneous, monkeypatch):
        """Lending near-resonant averages across symmetry orbits of zeta gives
        the sigma_hat and stderr of a run that builds every resolvent
        directly, and averages directly once per orbit: per distinct image
        set of the columns under the 48 signed axis permutations and
        conjugation, counted here by brute force. Two frames: the rotated
        pairs have components that tie up to rounding, which the canonical
        form must not split into separate orbits."""
        traces, capacity, kwargs = small_inhomogeneous
        kwargs = dict(kwargs, n_frames=2)
        direct_builds = []
        init = ConjugatedResolvent.__init__

        def counting(self, zeta, k, grid, lend=None):
            direct_builds.append(lend is None)
            init(self, zeta, k, grid, lend)

        monkeypatch.setattr(cgo.ConjugatedResolvent, "__init__", counting)
        lent = reconstruct_sigma(traces, capacity, **kwargs)
        n_direct = sum(direct_builds)
        monkeypatch.setattr(CgoRemainderSolver, "_resolvent",
                            lambda self, zeta: ConjugatedResolvent(zeta, self.k, self.grid))
        direct = reconstruct_sigma(traces, capacity, **kwargs)
        scale = np.max(np.abs(direct.sigma_hat))
        assert np.max(np.abs(lent.sigma_hat - direct.sigma_hat)) <= 1e-11 * scale
        assert np.max(np.abs(lent.stderr - direct.stderr) / direct.stderr) <= 1e-11

        azimuths = np.array([0.0, 0.5 * np.pi])
        half = lent.xi_nodes[: len(lent.xi_nodes) // 2 + 1]  # the estimated nodes
        cols = build_zeta_eta(half[:, None], lent.t, K_DESK, azimuths[None])[0]
        cols = cols.reshape(-1, 3)
        # one build per column in each run, every one direct in the second
        assert direct_builds[len(cols):] == [True] * len(cols)
        signed = []
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                P = np.zeros((3, 3))
                P[np.arange(3), perm] = signs
                signed.append(P)
        orbits = []
        for z in cols:
            images = np.concatenate([np.array(signed) @ z, np.conj(np.array(signed) @ z)])
            tol = 1e-12 * np.abs(z).max()
            if not any(np.abs(images - r).max(axis=1).min() <= tol for r in orbits):
                orbits.append(z)
        assert len(cols) == 780 and n_direct == len(orbits) < 80

    def test_filled_half_mirrors_estimated_half(
        self, small_ensemble, grid, hom_medium, desk_capacity
    ):
        """Nodes past xi = 0 hold the conjugates of the estimates at nodes
        0 .. n // 2 in reverse order and share their standard errors, and
        the xi = 0 sample is real, bit for bit."""
        result = reconstruct_sigma(
            small_ensemble[:50], desk_capacity, k=K_DESK, R_prime=RP_DESK,
            medium=hom_medium, grid=grid, rho_override=3.0, n_frames=2,
        )
        h = len(result.xi_nodes) // 2
        assert np.array_equal(result.sigma_hat[h + 1:], np.conj(result.sigma_hat[:h][::-1]))
        assert result.sigma_hat[h].imag == 0
        assert np.array_equal(result.stderr[h + 1:], result.stderr[:h][::-1])

    def test_deterministic_rerun(self, small_ensemble, grid, hom_medium, desk_capacity):
        kwargs = dict(
            k=K_DESK,
            R_prime=RP_DESK,
            medium=hom_medium,
            grid=grid,
            rho_override=3.0,
            n_frames=2,
        )
        a = reconstruct_sigma(small_ensemble[:50], desk_capacity, **kwargs)
        b = reconstruct_sigma(small_ensemble[:50], desk_capacity, **kwargs)
        assert np.array_equal(a.sigma_hat, b.sigma_hat)
        assert np.array_equal(a.sigma_rec.values, b.sigma_rec.values)

    def test_frame_average_reduces_stderr(
        self, small_ensemble, grid, hom_medium, desk_capacity
    ):
        kwargs = dict(
            k=K_DESK, R_prime=RP_DESK, medium=hom_medium, grid=grid, rho_override=2.0
        )
        one = reconstruct_sigma(small_ensemble, desk_capacity, n_frames=1, **kwargs)
        eight = reconstruct_sigma(small_ensemble, desk_capacity, n_frames=8, **kwargs)
        assert np.median(eight.stderr) < 0.25 * np.median(one.stderr)

    def test_excessive_cutoff_rejected(
        self, small_ensemble, grid, hom_medium, desk_capacity
    ):
        with pytest.raises(ConfigurationError):
            reconstruct_sigma(
                small_ensemble,
                desk_capacity,
                k=K_DESK,
                R_prime=RP_DESK,
                medium=hom_medium,
                grid=grid,
                rho_override=50.0,
            )

    def test_empty_ensemble_rejected(self, grid, hom_medium, desk_capacity):
        mesh = desk_capacity.basis.mesh
        with pytest.raises(ValueError):
            reconstruct_sigma(
                np.zeros((0, mesh.n_nodes, 3), dtype=complex),
                desk_capacity,
                k=K_DESK,
                R_prime=RP_DESK,
                medium=hom_medium,
                grid=grid,
            )

    def test_peak_memory_is_one_trace_product_chunk(self):
        """The traces meet the dual vectors of 1,024 CGO columns at a
        time, so the peak allocation stays within twice one chunk's dual
        buffer and product, however many columns are estimated (3,120 here:
        195 estimated xi of 389, 8 frames, 2 members; four chunks)."""
        M, n_frames = 200, 8
        capacity = CapacityOperator(K_DESK, VshBasis(SphereMesh(1.0, 6), 6))
        N = capacity.basis.mesh.n_nodes
        rng = np.random.default_rng(3)
        traces = rng.standard_normal((M, N, 3)) + 1j * rng.standard_normal((M, N, 3))
        kwargs = dict(k=K_DESK, R_prime=RP_DESK, medium=MediumSpec(ball_radius=1.0),
                      grid=Grid3.for_ball(RP_DESK, 8), rho_override=5.0,
                      n_frames=n_frames, epsilon=0.1)
        tracemalloc.start()
        try:
            result = reconstruct_sigma(traces, capacity, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_cols = (len(result.xi_nodes) // 2 + 1) * 2 * n_frames
        chunk_cols = PRODUCT_COLUMNS
        assert n_cols > 3 * chunk_cols
        one_chunk = chunk_cols * (3 * N + M) * 16  # duals and products, complex
        assert peak < 2 * one_chunk, (peak, one_chunk)
