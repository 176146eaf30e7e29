import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planloc.fusion import (
    DegenerateDensitiesError,
    FusionConfig,
    FusionError,
    MissingDensitiesError,
    fuse_densities,
    weights_binary,
    weights_linear,
)
from planloc.geometry import RigidTransform
from planloc.sensor_sim import (
    CameraSpec,
    DensityImage,
    Scan,
    default_camera_rig,
    read_scan_csv,
    write_scan_csv,
)


def forward_camera(width=64, height=48) -> CameraSpec:
    (cam,) = default_camera_rig(count=1, width=width, height=height, mount=(0, 0, 0))
    return cam


def constant_image(cam: CameraSpec, value: float) -> DensityImage:
    return DensityImage(values=np.full((cam.height, cam.width), value))


class TestProjection:
    def test_principal_point(self):
        cam = forward_camera()
        img = constant_image(cam, 0.0)
        vals = img.values.copy()
        vals[int(round(cam.cy)), int(round(cam.cx))] = 0.7
        img = DensityImage(values=vals)
        # point straight down the optical axis, 2 m ahead of the robot
        scan = Scan(points=np.array([[2.0, 0.0, 0.0]]))
        fused, removed = fuse_densities(scan, [(img, cam, cam.extrinsic)])
        assert removed == 0
        assert fused.densities[0] == pytest.approx(0.7, abs=0)

    def test_mis_sized_image_names_both_sizes(self):
        cam = forward_camera(32, 24)
        scan = Scan(points=np.array([[2.0, 0.0, 0.0]]))
        image = DensityImage(values=np.full((3, 4), 0.5))
        with pytest.raises(ValueError) as err:
            fuse_densities(scan, [(image, cam, cam.extrinsic)])
        assert str(err.value) == "density image is 4 x 3 pixels, its camera 32 x 24"

    def test_point_behind_all_cameras_removed(self):
        cam = forward_camera()
        scan = Scan(points=np.array([[-1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        fused, removed = fuse_densities(scan, [(constant_image(cam, 0.5), cam, cam.extrinsic)])
        assert removed == 1
        assert len(fused) == 1
        np.testing.assert_allclose(fused.points[0], [2.0, 0.0, 0.0])

    def test_removed_plus_kept_equals_input(self):
        rng = np.random.default_rng(0)
        cam = forward_camera()
        scan = Scan(points=rng.uniform(-3, 3, size=(200, 3)))
        fused, removed = fuse_densities(scan, [(constant_image(cam, 0.4), cam, cam.extrinsic)])
        assert removed + len(fused) == 200

    def test_max_rule_over_two_cameras(self):
        cam = forward_camera()
        scan = Scan(points=np.array([[2.0, 0.0, 0.0]]))
        images = [
            (constant_image(cam, 0.3), cam, cam.extrinsic),
            (constant_image(cam, 0.9), cam, cam.extrinsic),
        ]
        fused, _ = fuse_densities(scan, images, FusionConfig(rule="max"))
        assert fused.densities[0] == 0.9

    def test_first_hit_rule(self):
        cam = forward_camera()
        scan = Scan(points=np.array([[2.0, 0.0, 0.0]]))
        images = [
            (constant_image(cam, 0.3), cam, cam.extrinsic),
            (constant_image(cam, 0.9), cam, cam.extrinsic),
        ]
        fused, _ = fuse_densities(scan, images, FusionConfig(rule="first_hit"))
        assert fused.densities[0] == 0.3

    def test_back_projection_round_trip(self):
        cam = forward_camera()
        rng = np.random.default_rng(1)
        vals = rng.random((cam.height, cam.width))
        img = DensityImage(values=vals)
        for _ in range(50):
            iu = int(rng.integers(0, cam.width))
            iv = int(rng.integers(0, cam.height))
            depth = float(rng.uniform(0.5, 20.0))
            ray_cam = np.array([(iu - cam.cx) / cam.fx, (iv - cam.cy) / cam.fy, 1.0])
            point = cam.extrinsic.apply(ray_cam * depth)
            fused, removed = fuse_densities(
                Scan(points=point[None, :]), [(img, cam, cam.extrinsic)]
            )
            assert removed == 0
            assert fused.densities[0] == vals[iv, iu]


class TestBinaryWeights:
    def test_threshold_keeps_boundary(self):
        scan = Scan(points=np.zeros((3, 3)), densities=np.array([0.3, 0.5, 0.9]))
        out = weights_binary(scan, delta=0.5)
        np.testing.assert_array_equal(out.densities, [0.5, 0.9])
        np.testing.assert_array_equal(out.weights, [1.0, 1.0])

    def test_zero_threshold_keeps_all(self):
        scan = Scan(points=np.zeros((3, 3)), densities=np.array([0.1, 0.0, 0.9]))
        out = weights_binary(scan, delta=0.0)
        assert len(out) == 3
        np.testing.assert_array_equal(out.weights, np.ones(3))

    def test_impossible_threshold_empties_scan(self):
        scan = Scan(points=np.zeros((3, 3)), densities=np.array([0.3, 0.5, 0.99]))
        out = weights_binary(scan, delta=1.0)
        assert len(out) == 0

    @pytest.mark.parametrize("delta", [-0.1, 1.01, 1.5, np.nan])
    def test_threshold_outside_unit_interval_rejected(self, delta):
        # densities lie in [0, 1]: a threshold above 1 would drop every point
        scan = Scan(points=np.zeros((3, 3)), densities=np.array([0.3, 0.5, 1.0]))
        with pytest.raises(FusionError, match=r"delta must lie in \[0, 1\]"):
            weights_binary(scan, delta)

    def test_missing_densities(self):
        with pytest.raises(MissingDensitiesError):
            weights_binary(Scan(points=np.zeros((2, 3))))

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40),
        st.floats(min_value=0, max_value=1),
    )
    @settings(deadline=None, max_examples=60)
    def test_kept_set_is_exactly_above_threshold(self, densities, delta):
        d = np.array(densities)
        scan = Scan(points=np.zeros((len(d), 3)), densities=d)
        out = weights_binary(scan, delta)
        assert len(out) == int((d >= delta).sum())
        if len(out):
            assert out.densities.min() >= delta
            assert set(np.unique(out.weights)) == {1.0}


class TestLinearWeights:
    def test_hand_example(self):
        scan = Scan(points=np.zeros((2, 3)), densities=np.array([0.2, 0.8]))
        out = weights_linear(scan, delta_prime=0.1)
        # a = (1 + 0.1) / 0.8 = 1.375; w = max(0, a d - 0.1)
        np.testing.assert_allclose(out.weights, [0.175, 1.0], atol=1e-12)

    def test_zero_threshold_is_plain_normalization(self):
        scan = Scan(points=np.zeros((2, 3)), densities=np.array([0.5, 1.0]))
        out = weights_linear(scan, delta_prime=0.0)
        np.testing.assert_allclose(out.weights, [0.5, 1.0], atol=1e-12)

    def test_uniform_densities_get_unit_weights(self):
        scan = Scan(points=np.zeros((4, 3)), densities=np.full(4, 0.6))
        out = weights_linear(scan, delta_prime=0.1)
        np.testing.assert_array_equal(out.weights, np.ones(4))

    def test_retains_all_points(self):
        scan = Scan(points=np.zeros((3, 3)), densities=np.array([0.01, 0.4, 0.9]))
        out = weights_linear(scan, delta_prime=0.5)
        assert len(out) == 3
        assert out.weights[0] == 0.0

    def test_missing_densities(self):
        with pytest.raises(MissingDensitiesError):
            weights_linear(Scan(points=np.zeros((2, 3))))

    @pytest.mark.parametrize("delta_prime", [-1.0, -0.5, -2.0, np.nan])
    def test_negative_threshold_rejected(self, delta_prime):
        # 1 + delta' normalizes the weights: -1 divides by zero, below it
        # the weights invert
        scan = Scan(points=np.zeros((2, 3)), densities=np.array([0.2, 0.8]))
        with pytest.raises(FusionError, match="delta_prime must be >= 0"):
            weights_linear(scan, delta_prime)

    def test_degenerate_densities(self):
        scan = Scan(points=np.zeros((2, 3)), densities=np.zeros(2))
        with pytest.raises(DegenerateDensitiesError):
            weights_linear(scan)
        with pytest.raises(DegenerateDensitiesError):
            weights_linear(Scan(points=np.zeros((0, 3)), densities=np.zeros(0)))

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1), min_size=1, max_size=40),
        st.floats(min_value=0, max_value=2),
    )
    @settings(deadline=None, max_examples=60)
    # a * d - delta' rounds to 2.2e-16 at this cutoff, not to 0
    @example([0.5, 0.9999999999999999], 1.0)
    def test_normalization_and_monotonicity(self, densities, delta_prime):
        d = np.array(densities)
        scan = Scan(points=np.zeros((len(d), 3)), densities=d)
        out = weights_linear(scan, delta_prime)
        assert out.weights.max() == 1.0
        order = np.argsort(d)
        assert np.all(np.diff(out.weights[order]) >= -1e-12)
        # w = 0 exactly for densities at or below delta' * max / (1 + delta')
        cutoff = delta_prime * d.max() / (1.0 + delta_prime)
        zero = out.weights == 0
        np.testing.assert_array_equal(zero, d <= cutoff + 1e-15 * d.max())


class TestFusedCsv:
    def test_round_trip(self, tmp_path):
        scan = Scan(
            points=np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.25]]),
            densities=np.array([0.25, 0.75]),
            weights=np.array([0.1, 1.0]),
        )
        path = tmp_path / "fused.csv"
        write_scan_csv(scan, path)
        back = read_scan_csv(path)
        np.testing.assert_allclose(back.points, scan.points, atol=1e-9)
        np.testing.assert_allclose(back.densities, scan.densities, atol=1e-9)
        np.testing.assert_allclose(back.weights, scan.weights, atol=1e-9)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_scan_csv(path)
