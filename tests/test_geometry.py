import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochmaxwell.geometry import (
    Bump,
    ConfigurationError,
    Grid3,
    MediumSpec,
    SourceStrength,
    SphereMesh,
    evaluate_on_grid,
    trilinear_interpolate,
    write_field,
)
from stochmaxwell.sphharm import scalar_ylm

from conftest import load_bench
from oracles import bump_integral, radii


class TestGrid3:
    def test_cube_geometry(self):
        g = Grid3.cube(1.0, 21)
        ax = g.axes()
        assert ax[0][0] == -1.0 and np.isclose(ax[0][-1], 1.0)
        assert g.spacing == pytest.approx(0.1)
        assert g.cell_volume == pytest.approx(1e-3)

    def test_for_ball_contains_sphere_with_margin(self):
        g = Grid3.for_ball(1.3, 33)
        assert g.contains_ball(1.3)
        # boundary sits at least 1.5 cells inside the box on every side
        assert g.axes()[0][-1] - 1.3 > 1.5 * g.spacing

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            Grid3(origin=(0, 0, 0), spacing=-1.0, dims=(4, 4, 4))
        with pytest.raises(ConfigurationError):
            Grid3.for_ball(1.0, n=6)

    @pytest.mark.parametrize("origin, spacing", [
        ((0, 0, 0), float("nan")),
        ((0, 0, 0), float("inf")),
        ((float("nan"), 0, 0), 0.1),
    ], ids=["nan-spacing", "inf-spacing", "nan-origin"])
    def test_nonfinite_rejected(self, origin, spacing):
        """`spacing <= 0` is false for nan, so only a finite check refuses it."""
        with pytest.raises(ConfigurationError, match="finite"):
            Grid3(origin=origin, spacing=spacing, dims=(3, 3, 3))

    def test_nodes_shape_and_radii(self):
        g = Grid3.cube(0.5, 9)
        assert g.nodes().shape == (3, 9, 9, 9)
        assert radii(g)[4, 4, 4] == pytest.approx(0.0)


class TestBump:
    def test_compact_support_and_peak(self):
        b = Bump(center=(0.1, 0.0, 0.0), radius=0.5, amplitude=2.0)
        x = np.array([0.1, 0.7, 0.1])
        assert b(x[0], x[1], x[2]) == 0.0
        assert b(0.1, 0.0, 0.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("center, radius, amplitude", [
        ((0, 0, 0), float("nan"), 0.1),
        ((0, 0, 0), float("inf"), 0.1),
        ((0, 0, 0), 0.5, float("nan")),
        ((0, float("-inf"), 0), 0.5, 0.1),
    ], ids=["nan-radius", "inf-radius", "nan-amplitude", "inf-center"])
    def test_nonfinite_rejected(self, center, radius, amplitude):
        """A nan radius or amplitude passes every sign check, and a bump sum
        holding it would silently evaluate to nothing or to nan."""
        with pytest.raises(ConfigurationError, match="finite"):
            Bump(center=center, radius=radius, amplitude=amplitude)

    def test_integral_matches_grid_sum(self):
        b = Bump(center=(0.0, 0.0, 0.0), radius=0.6, amplitude=1.0)
        g = Grid3.cube(0.8, 65)
        vals = b(*g.nodes())
        assert np.sum(vals) * g.cell_volume == pytest.approx(bump_integral(b), rel=1e-3)

    @given(
        st.floats(0.2, 1.0),
        st.floats(0.1, 3.0),
        st.floats(-0.9, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_bounded(self, radius, amp, off):
        b = Bump(center=(off * 0.1, 0.0, 0.0), radius=radius, amplitude=amp)
        x = np.linspace(-1, 1, 41)
        vals = b(x, x, x)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= amp + 1e-12)


class TestSpecs:
    def test_medium_positivity_enforced(self):
        with pytest.raises(ConfigurationError):
            MediumSpec((Bump((0, 0, 0), 0.5, 1.2),), ball_radius=1.0)

    def test_bump_outside_ball_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceStrength((Bump((0.8, 0, 0), 0.5, 0.1),), ball_radius=1.0)

    def test_negative_source_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceStrength((Bump((0, 0, 0), 0.5, -0.1),), ball_radius=1.0)

    def test_evaluate_real_and_deterministic(self):
        spec = SourceStrength((Bump((0, 0.1, 0), 0.5, 0.3),), ball_radius=1.0)
        g = Grid3.cube(1.0, 17)
        f1 = evaluate_on_grid(spec, g)
        f2 = evaluate_on_grid(spec, g)
        assert isinstance(f1, np.ndarray) and f1.dtype == np.float64 and f1.shape == g.dims
        assert np.array_equal(f1, f2)

    @pytest.mark.parametrize("cls, amplitude", [(SourceStrength, 1e308), (MediumSpec, -1e308)])
    def test_evaluate_overflowing_bump_sum_rejected(self, cls, amplitude):
        """Two finite overlapping bumps whose sum overflows to inf are refused,
        not handed on as samples."""
        spec = cls((Bump((0, 0, 0), 0.5, amplitude), Bump((0.1, 0, 0), 0.5, amplitude)), ball_radius=1.0)
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError, match="not finite"):
            evaluate_on_grid(spec, Grid3.cube(1.0, 9))


class TestSphereMesh:
    def test_total_weight_is_surface_area(self):
        mesh = SphereMesh(1.3, 10)
        assert mesh.weights.sum() == pytest.approx(4 * np.pi * 1.3 ** 2)

    def test_quadrature_exact_for_harmonics(self, desk_mesh):
        # orthonormality of scalar harmonics under the mesh quadrature
        mesh = desk_mesh
        y1, y2 = (scalar_ylm(l, 2, mesh.theta, mesh.phi)[0] / mesh.radius  # R^2 dOmega measure
                  for l in (3, 5))
        assert abs(np.sum(mesh.weights * y1 * np.conj(y1)) - 1.0) < 1e-12
        assert abs(np.sum(mesh.weights * y1 * np.conj(y2))) < 1e-12

    def test_nodes_on_sphere(self):
        mesh = SphereMesh(0.7, 6)
        assert np.allclose(np.linalg.norm(mesh.nodes, axis=1), 0.7)
        assert np.allclose(np.sum(mesh.theta_hat * mesh.normals, axis=1), 0.0)

    def test_frame_components_drop_only_the_normal(self):
        """to_frame keeps the tangential part of nodal vectors, which
        from_frame rebuilds; the normal part is dropped."""
        mesh = SphereMesh(1.0, 6)
        rng = np.random.default_rng(4)
        comps = rng.standard_normal((3, mesh.n_nodes, 2)) + 1j * rng.standard_normal((3, mesh.n_nodes, 2))
        tangential = mesh.from_frame(comps)
        assert np.allclose(np.sum(tangential * mesh.normals, axis=-1), 0.0, atol=1e-15)
        normal = rng.standard_normal((3, mesh.n_nodes, 1)) * mesh.normals
        assert np.allclose(mesh.to_frame(tangential + normal), comps, rtol=0.0, atol=1e-14)


class TestInterpolation:
    def test_exact_for_trilinear_functions(self):
        g = Grid3.cube(1.0, 11)
        x, y, z = g.nodes()
        vals = 2.0 + x - 3 * y + 0.5 * z + x * y * z
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.9, 0.9, (40, 3))
        got = trilinear_interpolate(vals, g, pts)
        want = 2.0 + pts[:, 0] - 3 * pts[:, 1] + 0.5 * pts[:, 2] + pts.prod(axis=1)
        assert np.allclose(got, want, atol=1e-12)

    def test_outside_box_rejected(self):
        g = Grid3.cube(1.0, 11)
        with pytest.raises(ValueError):
            trilinear_interpolate(np.zeros(g.dims), g, np.array([[1.5, 0, 0]]))


class TestFieldIO:
    def test_roundtrip(self, tmp_path):
        """A dump reads back exactly through the benchmark's own
        independent field reader: complex scalar and vector samples, and
        real samples as re/im pairs with zero imaginary parts."""
        read_field = load_bench("reference").read_field
        g = Grid3.cube(0.5, 8)
        rng = np.random.default_rng(11)
        for values in (
            rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims),
            rng.standard_normal((3,) + g.dims) + 1j * rng.standard_normal((3,) + g.dims),
            rng.standard_normal(g.dims),
        ):
            path = tmp_path / "field.bin"
            write_field(path, values, g)
            back, origin, spacing = read_field(path)
            assert origin == g.origin and spacing == g.spacing
            assert back.shape == values.reshape((-1,) + g.dims).shape
            assert np.array_equal(back.reshape(values.shape), values)
        with pytest.raises(ValueError):
            write_field(tmp_path / "field.bin", np.zeros((3, 3, 3)), g)
