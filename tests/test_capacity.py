import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochmaxwell import capacity as capacity_module
from stochmaxwell.capacity import (
    CapacityOperator,
    radiating_multipole,
    spherical_h1,
)
from stochmaxwell.forward import HomogeneousTraceMap
from stochmaxwell.geometry import Grid3, SphereMesh
from stochmaxwell.sphharm import VshBasis, scalar_ylm
from stochmaxwell.verify import capacity_identity, ibp_identity, multipoles

from conftest import K_DESK, rel_err
from oracles import electric_dipole_field


class TestVshBasis:
    def test_roundtrip_of_tangential_field(self, desk_basis):
        """decompose/synthesize is the identity on band-limited tangential
        fields (here: a multipole trace, by its frame components)."""
        mesh = desk_basis.mesh
        E, _ = radiating_multipole("te", 4, -2, K_DESK, mesh.nodes)
        trace = np.cross(E, mesh.normals)
        back = mesh.from_frame(desk_basis.synthesize(desk_basis.decompose(mesh.to_frame(trace))))
        assert rel_err(back, trace) < 1e-12

    def test_expansion_coefficient_lookup(self, desk_basis):
        """Coefficient (family, l, m) sits at mode_index(l, m), the curl family
        n_modes further on: synthesizing a unit vector there gives that
        family's harmonic: the normalized surface gradient of Y_lm, then its
        rotation nu x grad."""
        l, m = 3, -1
        mesh = desk_basis.mesh
        idx = desk_basis.mode_index(l, m)
        assert desk_basis.modes[idx] == (l, m)
        y, dy = scalar_ylm(l, m, mesh.theta, mesh.phi)
        grad = (dy[:, None] * mesh.theta_hat
                + (1j * m * y / np.sin(mesh.theta))[:, None] * mesh.phi_hat)
        grad /= mesh.radius * np.sqrt(l * (l + 1))
        unit = np.zeros(2 * desk_basis.n_modes, dtype=complex)
        unit[idx] = 1.0
        assert np.allclose(mesh.from_frame(desk_basis.synthesize(unit)), grad)
        unit = np.roll(unit, desk_basis.n_modes)
        assert np.allclose(mesh.from_frame(desk_basis.synthesize(unit)), np.cross(mesh.normals, grad))

    def test_harmonics_of_all_modes_match_single_calls(self, desk_basis):
        """scalar_ylm over arrays of degrees and orders, and the basis's
        gradient tables (one evaluation of every Y_lm, the next mode's
        standing in for Y_l,m+1), give every mode's Y_lm and dY_lm bit for
        bit as a call for that mode alone, m = l (Y_l,l+1 = 0) included."""
        mesh = desk_basis.mesh
        degree, order = np.array(desk_basis.modes).T[:, :, None]
        Y, dY = scalar_ylm(degree, order, mesh.theta, mesh.phi)
        grad = desk_basis._stack[: desk_basis.n_modes]
        for row, (l, m) in enumerate(desk_basis.modes):
            y, dy = scalar_ylm(l, m, mesh.theta, mesh.phi)
            assert np.array_equal(y, Y[row]) and np.array_equal(dy, dY[row])
            norm = 1.0 / (mesh.radius * np.sqrt(l * (l + 1)))
            assert np.array_equal(grad[row, :, 0], dy * norm)

    def test_batched_decompose_matches_loop(self, desk_basis):
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((4, desk_basis.mesh.n_nodes, 2)) + 0j
        stacked = desk_basis.decompose(batch)
        for i in range(4):
            assert np.allclose(stacked[i], desk_basis.decompose(batch[i]))


    def test_capacity_build_drops_its_basis(self, monkeypatch):
        """The capacity operator builds its basis on its mesh and holds it,
        with its mode tables, only while it builds its symbols: once the
        operator exists no basis built for it is alive, without a garbage
        collection."""
        built = []

        def spy(*args):
            basis = VshBasis(*args)
            built.append(weakref.ref(basis))
            return basis

        monkeypatch.setattr(capacity_module, "VshBasis", spy)
        mesh = SphereMesh(1.0, 5)
        cap = CapacityOperator(K_DESK, mesh)
        assert len(built) == 1 and built[0]() is None
        assert cap.mesh is mesh and cap._blocks.shape == (2, 2, 5 * 7)


class TestMultipoleIdentity:
    def test_all_degrees_and_orders(self, desk_basis, desk_capacity):
        """apply maps E x nu to H x nu for every radiating multipole with
        l <= lmax; this is the defining property of the operator."""
        modes = [(l, m) for l in range(1, desk_basis.mesh.lmax + 1) for m in (-l, 0, min(l, 2))]
        fields = multipoles(K_DESK, desk_basis.mesh.nodes, modes)
        for got, want in capacity_identity(desk_capacity, fields):
            assert rel_err(got, want) < 1e-10

    def test_fault_scale_breaks_identity(self, desk_mesh):
        """The deliberate-corruption knob must actually corrupt: negative
        control for the verification harness."""
        bad = CapacityOperator(K_DESK, desk_mesh, fault_scale=1.05)
        mesh = desk_mesh
        E, H = radiating_multipole("te", 2, 1, K_DESK, mesh.nodes)
        got = bad.apply(np.cross(E, mesh.normals))
        assert rel_err(got, np.cross(H, mesh.normals)) > 1e-3


class TestOnePassBuild:
    """The capacity build evaluates the m = 0 multipoles of every degree in
    one call per kind and decomposes all their traces in one product."""

    def test_multipoles_of_all_degrees_equal_per_degree(self, desk_mesh):
        degrees = np.arange(1, desk_mesh.lmax + 1)
        for kind in ("te", "tm"):
            E, H = radiating_multipole(kind, degrees[:, None], 0, K_DESK, desk_mesh.nodes)
            for l in degrees:
                e, h = radiating_multipole(kind, int(l), 0, K_DESK, desk_mesh.nodes)
                assert np.array_equal(E[l - 1], e) and np.array_equal(H[l - 1], h)

    @pytest.mark.parametrize("k, lmax, fault_scale", [(K_DESK, 12, 1.0), (3.7, 5, 1.05)])
    def test_multipliers_match_the_per_degree_build(self, k, lmax, fault_scale):
        """Each degree's multiplier is within 1e-14 relative of the one
        solved from that degree's two multipoles alone, each trace
        decomposed on its own, and every mode of the degree carries it."""
        mesh = SphereMesh(1.0, lmax)
        cap = CapacityOperator(k, mesh, fault_scale)
        basis = VshBasis(mesh)
        for l in range(1, lmax + 1):
            idx = basis.mode_index(l, 0)
            cols = np.empty((2, 2, 2), dtype=complex)  # [E/H, family, kind]
            for j, kind in enumerate(("te", "tm")):
                for e, field in enumerate(radiating_multipole(kind, l, 0, k, mesh.nodes)):
                    coeffs = basis.decompose(mesh.to_frame(np.cross(field, mesh.normals)))
                    cols[e, :, j] = coeffs[[idx, basis.n_modes + idx]]
            want = fault_scale * cols[1] @ np.linalg.inv(cols[0])
            got = cap._blocks[:, :, idx - l : idx + l + 1]
            assert np.array_equal(got, np.broadcast_to(got[:, :, :1], got.shape))
            assert rel_err(got[:, :, 0], want) < 1e-14


class TestOffCenterDipole:
    def test_trace_map(self, desk_capacity):
        """A dipole field is an l-mixing radiating solution not used in the
        construction; the operator must map its traces correctly too."""
        src = np.array([0.2, -0.1, 0.15])
        p = np.array([0.4, 1.0, -0.3])
        dipole = electric_dipole_field(K_DESK, src, p, desk_capacity.mesh.nodes)
        assert rel_err(*capacity_identity(desk_capacity, [dipole])[0]) < 1e-6


class TestCoefficientAction:
    def test_apply_matches_coefficient_route(self, desk_basis, desk_capacity):
        rng = np.random.default_rng(12)
        basis = desk_basis  # the capacity's mesh and degree
        mesh = basis.mesh
        tr = mesh.from_frame(basis.synthesize(
            rng.standard_normal(2 * basis.n_modes)
            + 1j * rng.standard_normal(2 * basis.n_modes)
        ))
        via_coeffs = mesh.from_frame(basis.synthesize(
            desk_capacity.apply_coeffs(basis.decompose(mesh.to_frame(tr)))
        ))
        assert np.allclose(desk_capacity.apply(tr), via_coeffs, atol=1e-12)

    def test_azimuthal_convolution_matches_coefficient_route(self, desk_basis, desk_capacity):
        """apply_frame, a circular convolution over the azimuthal index,
        equals analysis, per-mode multiplier and synthesis on arbitrary frame
        samples (not band-limited), on the desk mesh and on a coarser one."""
        rng = np.random.default_rng(13)
        mesh = SphereMesh(1.0, 5)
        coarse = CapacityOperator(K_DESK, mesh)
        for cap, basis in ((desk_capacity, desk_basis), (coarse, VshBasis(mesh))):
            comps = rng.standard_normal((3, basis.mesh.n_nodes, 2)) + 1j * rng.standard_normal(
                (3, basis.mesh.n_nodes, 2))
            want = basis.synthesize(cap.apply_coeffs(basis.decompose(comps)))
            assert rel_err(cap.apply_frame(comps), want) < 1e-13
            assert rel_err(cap.apply_frame(comps[0]), want[0]) < 1e-13

    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_transpose_is_bilinear_adjoint(self, seed, desk_capacity):
        """y . (C x) == (C^T y) . x for the non-conjugate pairing of frame
        components (N, 2)."""
        rng = np.random.default_rng(seed)
        shape = (desk_capacity.mesh.n_nodes, 2)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lhs = np.sum(y * desk_capacity.apply_frame(x))
        rhs = np.sum(desk_capacity.apply_frame_transpose(y) * x)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_linearity(self, desk_capacity):
        rng = np.random.default_rng(3)
        mesh = desk_capacity.mesh
        a = rng.standard_normal((mesh.n_nodes, 3)) + 0j
        b = rng.standard_normal((mesh.n_nodes, 3)) + 0j
        lhs = desk_capacity.apply(2.0 * a - 1j * b)
        rhs = 2.0 * desk_capacity.apply(a) - 1j * desk_capacity.apply(b)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestConstruction:
    def test_capacity_apply_checks_mesh(self, desk_capacity):
        other = SphereMesh(1.0, 5)
        with pytest.raises(ValueError):
            desk_capacity.apply(np.zeros((other.n_nodes, 3), dtype=complex))

    def test_nonpositive_wavenumber_rejected(self, desk_mesh):
        with pytest.raises(ValueError):
            CapacityOperator(0.0, desk_mesh)

    def test_hankel_overflow_guard(self):
        with pytest.raises(OverflowError):
            spherical_h1(120, 0.1)
        with pytest.raises(OverflowError):
            spherical_h1(120, np.array([2.0, 0.1, 3.0]))
        with pytest.raises(OverflowError, match=r"l=120, z=0\.1;"):
            spherical_h1(np.array([[1], [120]]), np.array([2.0, 0.1, 3.0]))

    @pytest.mark.parametrize("derivative", [False, True])
    def test_hankel_array_matches_scalar(self, derivative):
        z = np.linspace(0.5, 4.0, 17)
        for l in (1, 5, 12):
            h = spherical_h1(l, z, derivative)
            want = [spherical_h1(l, float(zi), derivative) for zi in z]
            assert h.shape == z.shape
            assert np.array_equal(h, want)


class TestBoundaryFunctional:
    def test_equals_volume_pairing(self, desk_capacity):
        """The surface functional, through the dual vectors, reproduces
        int f . U dx for a radiating field with smooth interior source f and
        a homogeneous test solution U (plane wave with |d| = k)."""
        k = K_DESK
        mesh = desk_capacity.mesh
        grid = Grid3.for_ball(1.3, 33)
        x, y, z = grid.nodes()
        prof = np.exp(-((x - 0.05) ** 2 + y ** 2 + (z + 0.1) ** 2) / (2 * 0.25 ** 2))
        prof = prof * (np.sqrt(x ** 2 + y ** 2 + z ** 2) < 0.85)
        J = np.stack([prof, 0.3 * prof, -0.6 * prof]).astype(complex)

        mask = prof > 0
        trace = HomogeneousTraceMap(k, grid, mask, mesh).traces(J[:, mask].T[None])[0]
        d = k * np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        eta = np.array([2.0, -1.0, 0.0]) / np.sqrt(5.0)  # eta . d = 0
        # the source of the radiating field E = G * J is ik J
        assert ibp_identity(desk_capacity, grid, 1j * k * J, trace, [(d, eta)]) < 1e-2
