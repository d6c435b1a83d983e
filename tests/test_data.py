import numpy as np
import pytest

from pamr.data import (
    SHAPE_KINDS,
    ShapeSpec,
    format_xyz,
    gen_shapes,
    load_dataset_dir,
    parse_xyz,
    read_xyz,
    save_dataset_dir,
    write_xyz,
)
from pamr.errors import ConfigError, PointCloudParseError
from pamr.geometry import PointCloud


class TestShapeSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown shape kind"):
            ShapeSpec("donut")

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError, match="at least 64"):
            ShapeSpec("sphere", n_points=8)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigError):
            ShapeSpec("sphere", jitter=-0.1)


class TestGeneration:
    def test_deterministic_per_seed(self):
        a, b = gen_shapes([ShapeSpec("torus", 64, 0.05, seed=9)] * 2)
        assert np.array_equal(a.points, b.points)
        (c,) = gen_shapes([ShapeSpec("torus", 64, 0.05, seed=10)])
        assert not np.array_equal(a.points, c.points)

    def test_sphere_radius_exact_without_jitter(self):
        (cloud,) = gen_shapes([ShapeSpec("sphere", 256, 0.0, seed=1)])
        radii = np.linalg.norm(cloud.points, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-9

    def test_cube_points_sit_on_faces(self):
        (cloud,) = gen_shapes([ShapeSpec("cube", 256, 0.0, seed=2)])
        on_face = np.isclose(np.abs(cloud.points), 1.0).any(axis=1)
        assert on_face.all()
        inside = (np.abs(cloud.points) <= 1.0 + 1e-12).all(axis=1)
        assert inside.all()

    def test_torus_satisfies_implicit_equation(self):
        (cloud,) = gen_shapes([ShapeSpec("torus", 128, 0.0, seed=3)])
        x, y, z = cloud.points.T
        ring = np.sqrt(x**2 + y**2) - 1.0
        assert np.max(np.abs(ring**2 + z**2 - 0.4**2)) < 1e-9

    def test_cylinder_points_on_surface(self):
        (cloud,) = gen_shapes([ShapeSpec("cylinder", 256, 0.0, seed=4)])
        x, y, z = cloud.points.T
        r = np.sqrt(x**2 + y**2)
        on_wall = np.isclose(r, 0.7) & (np.abs(z) <= 1.0 + 1e-12)
        on_cap = np.isclose(np.abs(z), 1.0) & (r <= 0.7 + 1e-12)
        assert (on_wall | on_cap).all()

    def test_cone_stays_inside_bounds(self):
        (cloud,) = gen_shapes([ShapeSpec("cone", 256, 0.0, seed=5)])
        x, y, z = cloud.points.T
        r = np.sqrt(x**2 + y**2)
        assert (z >= -1.0 - 1e-12).all() and (z <= 1.0 + 1e-12).all()
        # radius shrinks linearly toward the apex
        allowed = 0.8 * (1.0 - z) / 2.0
        assert (r <= allowed + 1e-9).all()

    def test_labels_assigned(self):
        clouds = gen_shapes([ShapeSpec("sphere", 64, 0.0, seed=0, label=7)])
        assert clouds[0].label == 7

    def test_jitter_perturbs(self):
        (a,) = gen_shapes([ShapeSpec("plane-with-bump", 64, 0.0, seed=6)])
        (b,) = gen_shapes([ShapeSpec("plane-with-bump", 64, 0.05, seed=6)])
        assert not np.array_equal(a.points, b.points)

    def test_every_kind_generates(self):
        for kind in SHAPE_KINDS:
            (cloud,) = gen_shapes([ShapeSpec(kind, 64, 0.01, seed=0)])
            assert cloud.points.shape == (64, 3)
            assert np.isfinite(cloud.points).all()


class TestXyzFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.normal(size=(128, 3)), label=3)
        path = tmp_path / "c.xyz"
        write_xyz(path, cloud)
        back = read_xyz(path)
        assert np.array_equal(back.points, cloud.points)
        assert back.label == 3

    def test_label_header_optional(self, tmp_path):
        cloud = PointCloud(np.eye(3))
        path = tmp_path / "plain.xyz"
        write_xyz(path, cloud)
        assert not path.read_text().startswith("#")
        assert read_xyz(path).label is None

    def test_two_component_line_names_lineno(self):
        with pytest.raises(PointCloudParseError, match=":2"):
            parse_xyz("0 0 0\n1 1\n")

    def test_non_numeric_token(self):
        with pytest.raises(PointCloudParseError, match="not a number"):
            parse_xyz("0 0 zero\n")

    def test_bad_label_header(self):
        with pytest.raises(PointCloudParseError, match="bad label"):
            parse_xyz("# label x\n0 0 0\n")

    @pytest.mark.parametrize("label", [10**30, 2**63, -(2**63) - 1])
    def test_label_outside_int64_names_lineno(self, label):
        with pytest.raises(PointCloudParseError, match="f.xyz:1: label .* outside int64"):
            parse_xyz(f"# label {label}\n0 0 0\n", origin="f.xyz")

    def test_int64_label_bounds_accepted(self):
        for label in (2**63 - 1, -(2**63)):
            assert parse_xyz(f"# label {label}\n0 0 0\n").label == label

    def test_stray_comment_rejected(self):
        with pytest.raises(PointCloudParseError, match=":3"):
            parse_xyz("0 0 0\n1 1 1\n# not a header\n")

    def test_empty_file_rejected(self):
        with pytest.raises(PointCloudParseError, match="no points"):
            parse_xyz("\n\n")

    def test_format_uses_17_significant_digits(self):
        cloud = PointCloud(np.array([[1.0 / 3.0, -2.0 / 7.0, 1e-17]]))
        text = format_xyz(cloud)
        assert "0.33333333333333331" in text
        back = parse_xyz(text)
        assert np.array_equal(back.points, cloud.points)


class TestDatasetDir:
    def test_save_and_load_preserves_order(self, tmp_path):
        rng = np.random.default_rng(1)
        clouds = [PointCloud(rng.normal(size=(16, 3)), label=i % 2) for i in range(5)]
        save_dataset_dir(tmp_path / "d", clouds)
        back = load_dataset_dir(tmp_path / "d")
        assert len(back) == 5
        for orig, loaded in zip(clouds, back):
            assert np.array_equal(orig.points, loaded.points)
            assert orig.label == loaded.label

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no .xyz files"):
            load_dataset_dir(tmp_path)
