import dataclasses
import math

import numpy as np
import pytest

from planloc import registration
from planloc.experiment import assemble_scene, load_config
from planloc.fusion import Scan, weights_linear
from planloc.geometry import RigidTransform, compose, invert, pose_delta, rotvec_to_matrix
from planloc.model import BuildingModel, MapCloud, make_box_surface, sample_model
from planloc.registration import (
    FailureReason,
    IcpConfig,
    IcpResult,
    LocalizationResult,
    MapIndex,
    NearestCertificates,
    SelectiveConfig,
    _kernel_weights,
    gauss_newton_step,
    huber_newton_step,
    localize,
    point_to_plane_icp,
    residual_jacobian,
    result_record,
)
from planloc.sensor_sim import LidarSpec, Scene, raycast_scan

from conftest import normals_at, pose_to_plane_cost, random_rotvec
from test_acceptance import deviation_config


@pytest.fixture(scope="module")
def room_cloud(room_model):
    return sample_model(room_model, 300.0, seed=7)


@pytest.fixture(scope="module")
def room_index(room_cloud):
    return MapIndex(room_cloud)


ROOM_LIDAR = LidarSpec(
    ring_elevations_deg=tuple(np.concatenate([np.linspace(-40, -30, 3), np.linspace(-2, 15, 8)])),
    azimuth_step_deg=3.0,
    max_range_m=30.0,
    range_noise_m=0.0,
)

ROBOT_POSE = RigidTransform.from_rotvec([0, 0, 0.3], [3.0, 3.0, 0.5])


def scan_from_map(cloud: MapCloud, pose: RigidTransform, n: int, seed: int) -> Scan:
    """Scan whose points are an exact subset of map points, in the sensor frame."""
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(cloud), size=n, replace=False)
    return Scan(points=invert(pose).apply(cloud.points[pick]))


def shifted_map(cloud: MapCloud, offset) -> MapIndex:
    """Index of `cloud` moved by `offset`: a reference map the full map disagrees with."""
    moved = cloud.points + np.asarray(offset)
    return MapIndex(MapCloud(moved, cloud.triangle, cloud.model))


def irls_icp(scan: Scan, map_index: MapIndex, init: RigidTransform, cfg: IcpConfig) -> IcpResult:
    """Reference solver: point_to_plane_icp as it was before the Huber-Newton
    step, one iteratively-reweighted Gauss-Newton step per iteration. Same
    fixed points; under a tight Huber scale it gets there only linearly."""
    points = scan.points
    weights = scan.weights if scan.weights is not None else np.ones(len(points))
    transform = init
    residual_rms = 0.0
    n_corr = 0
    positive = weights > 0
    for iteration in range(1, cfg.max_iterations + 1):
        world = transform.apply(points)
        idx, valid = map_index.query(world, cfg.max_correspondence_m)
        active = valid & positive
        n_corr = int(active.sum())
        if n_corr < cfg.min_correspondences:
            return IcpResult(transform, "starved", iteration, residual_rms, n_corr)
        p = world[active]
        m = map_index.cloud.points[idx[active]]
        nrm = normals_at(map_index.cloud, idx[active])
        w = weights[active]
        residuals = np.einsum("ij,ij->i", p - m, nrm)
        irls = _kernel_weights(residuals, cfg.huber_scale_m)
        step = gauss_newton_step(residual_jacobian(p, nrm), residuals, w * irls)
        residual_rms = math.sqrt(float((w * residuals**2).sum()) / float(w.sum()))
        omega, v = step[:3], step[3:]
        transform = compose(RigidTransform(rotvec_to_matrix(omega), v), transform)
        if np.linalg.norm(v) < cfg.translation_eps_m and np.linalg.norm(omega) < cfg.rotation_eps_rad:
            return IcpResult(transform, "converged", iteration, residual_rms, n_corr)
    # no cost is kept, so a run out of budget does not tell a rising cost apart
    return IcpResult(transform, "budget_exhausted", cfg.max_iterations, residual_rms, n_corr)


def at_the_gate(cfg: IcpConfig) -> IcpConfig:
    """`cfg` with its Huber scale at its gate: every matched residual is an
    inlier, so the cost is the squared one and each step Gauss-Newton's."""
    return dataclasses.replace(cfg, huber_scale_m=cfg.max_correspondence_m)


def run_to_fixed_point(cfg: IcpConfig) -> IcpConfig:
    """`cfg` run far past its stop criteria, for the reference solver."""
    return dataclasses.replace(
        cfg, max_iterations=200, translation_eps_m=1e-7, rotation_eps_rad=1e-8
    )


def counted(monkeypatch, module, name: str) -> list:
    """Replace `module.name` by a wrapper that records each call; the record."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def assert_same_pose(a: RigidTransform, b: RigidTransform) -> None:
    d = pose_delta(a, b)
    assert d.translation_norm < 1e-3 and d.rotation_angle < 1e-4, (
        f"{d.translation_norm * 1e3:.3f} mm, {d.rotation_angle * 1e3:.3f} mrad apart"
    )


def assert_bit_identical(res: IcpResult, ref: IcpResult) -> None:
    assert np.array_equal(res.transform.rotation, ref.transform.rotation)
    assert np.array_equal(res.transform.translation, ref.transform.translation)
    assert (res.converged, res.iterations, res.residual_rms_m, res.correspondences) == (
        ref.converged, ref.iterations, ref.residual_rms_m, ref.correspondences
    )


def huber_cost(scan: Scan, map_index: MapIndex, pose: RigidTransform, cfg: IcpConfig) -> float:
    return pose_to_plane_cost(scan, map_index, pose, cfg.huber_scale_m, cfg.max_correspondence_m)


class TestIcpConfig:
    FIELDS = (
        "max_iterations", "max_correspondence_m", "translation_eps_m", "rotation_eps_rad",
        "huber_scale_m", "min_correspondences",
    )

    def test_fields(self):
        assert {f.name for f in dataclasses.fields(IcpConfig)} == set(self.FIELDS)

    @pytest.mark.parametrize("value", [np.nan, 0, -1.0])
    @pytest.mark.parametrize("name", FIELDS)
    def test_refuses_nan_and_non_positive_values(self, name, value):
        with pytest.raises(ValueError, match=f"^ICP configuration value {name} must be positive$"):
            IcpConfig(**{name: value})

    def test_gate_may_be_infinite(self):
        assert IcpConfig(max_correspondence_m=np.inf).max_correspondence_m == np.inf


class TestMapIndex:
    def test_exact_nearest_neighbor(self, room_cloud, room_index):
        rng = np.random.default_rng(0)
        queries = rng.uniform(0, 6, size=(50, 3))
        idx, valid = room_index.query(queries)
        assert valid.all()
        # oracle: brute-force distance scan
        for q, i in zip(queries, idx):
            d = np.linalg.norm(room_cloud.points - q, axis=1)
            assert d[i] == pytest.approx(d.min(), abs=1e-12)

    def test_distance_gate(self, room_index):
        far = np.array([[100.0, 100.0, 100.0]])
        _, valid = room_index.query(far, max_distance=1.0)
        assert not valid.any()

    def test_rejects_empty_cloud(self):
        empty = cloud_of(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            MapIndex(empty)


def cloud_of(points: np.ndarray) -> MapCloud:
    """`points` as a map, each on the first triangle of a unit box."""
    box = BuildingModel((make_box_surface("s", [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),))
    return MapCloud(points, np.zeros(len(points), dtype=np.int32), box)


def brute_force(cloud_points: np.ndarray, queries: np.ndarray):
    """Distance from each query to every map point, as the kd-tree sums it."""
    diff = queries[:, None, :] - cloud_points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def query_clouds() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(21)
    planar = np.column_stack([rng.uniform(0, 4, (3000, 2)), np.zeros(3000)])
    return {
        "uniform": rng.uniform(0, 4, (3000, 3)),
        "planar": planar,
        "duplicates": np.repeat(rng.uniform(0, 4, (700, 3)), 3, axis=0),
        "single": np.array([[1.0, 2.0, 3.0]]),
    }


class CountingTree:
    """A kd-tree that counts the rows it searches."""

    def __init__(self, tree):
        self.tree, self.rows = tree, 0

    def query(self, points, *args, **kwargs):
        self.rows += len(points)
        return self.tree.query(points, *args, **kwargs)


class TestMapIndexAgainstBruteForce:
    GATE = 0.25

    @pytest.mark.parametrize("name", list(query_clouds()))
    def test_nearest_points_and_gate_match_brute_force(self, name):
        points = query_clouds()[name]
        index = MapIndex(cloud_of(points))
        rng = np.random.default_rng(22)
        queries = np.concatenate(
            [rng.uniform(-0.5, 4.5, (400, 3)), points[rng.integers(len(points), size=50)]]
        )
        dist = brute_force(points, queries)
        nearest = dist.min(axis=1)
        for gate in (np.inf, self.GATE):
            idx, valid = index.query(queries, gate)
            np.testing.assert_array_equal(valid, nearest < gate)
            assert np.array_equal(dist[np.arange(len(queries)), idx][valid], nearest[valid])
            no_tie = valid & ((dist == nearest[:, None]).sum(axis=1) == 1)
            assert np.array_equal(idx[no_tie], dist.argmin(axis=1)[no_tie])
            assert (idx[~valid] == 0).all()

    def test_points_just_inside_and_just_outside_the_gate(self):
        points = query_clouds()["planar"]
        index = MapIndex(cloud_of(points))
        pick = np.random.default_rng(23).choice(len(points), size=200, replace=False)
        up = np.array([0.0, 0.0, 1.0])
        inside = points[pick] + up * self.GATE * (1 - 1e-9)
        outside = points[pick] + up * self.GATE * (1 + 1e-9)
        idx, valid = index.query(inside, self.GATE)
        assert valid.all() and np.array_equal(idx, pick)
        _, valid = index.query(outside, self.GATE)
        assert not valid.any()

    def _walk(self, rng: np.random.Generator) -> list[RigidTransform]:
        """Poses of a seeded walk: one large first step, then steps that
        halve, as an ICP run's do."""
        poses = [RigidTransform.identity()]
        for k in range(10):
            size = 0.5**k
            step = RigidTransform.from_rotvec(
                rng.normal(size=3) * 0.05 * size, rng.normal(size=3) * 0.2 * size
            )
            poses.append(compose(step, poses[-1]))
        return poses

    def _at_gate(self, points: np.ndarray, rng: np.random.Generator, scale: float):
        """Points at `scale` times the gate from the map point nearest them."""
        pick = rng.integers(len(points), size=300)
        direction = rng.normal(size=(300, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        candidates = points[pick] + direction * self.GATE * scale
        dist = brute_force(points, candidates)
        return candidates[dist[np.arange(300), pick] == dist.min(axis=1)]

    @pytest.mark.parametrize("gate", [GATE, np.inf])
    @pytest.mark.parametrize("name", list(query_clouds()))
    def test_certified_answers_match_fresh_queries_along_a_walk(self, name, gate):
        """At every pose of the walk, the answer kept with certificates is
        that of a fresh query: validity, and the index even at ties, which
        go to the same gated search."""
        points = query_clouds()[name]
        index = MapIndex(cloud_of(points))
        tree = index._tree = CountingTree(index._tree)
        rng = np.random.default_rng(24)
        poses = self._walk(rng)
        inside = self._at_gate(points, rng, 1 - 4e-9)  # 1e-9 m inside the gate
        outside = self._at_gate(points, rng, 1 + 4e-9)
        queries = np.concatenate([
            rng.uniform(-0.5, 4.5, (400, 3)),
            points[rng.integers(len(points), size=50)],
            self._at_gate(points, rng, 1.0),  # on the gate at the first pose, up to rounding
            invert(poses[-1]).apply(np.concatenate([inside, outside])),
        ])
        certificates = NearestCertificates()
        seen, searched = [], []
        for pose in poses:
            world = pose.apply(queries)
            rows = tree.rows
            idx, valid = index.query(world, gate, certificates)
            searched.append(tree.rows - rows)
            fresh_idx, fresh_valid = index.query(world, gate)
            np.testing.assert_array_equal(valid, fresh_valid)
            np.testing.assert_array_equal(idx, fresh_idx)
            seen.append(valid)
        seen = np.array(seen)
        if gate < np.inf:
            assert (seen.any(axis=0) & ~seen.all(axis=0)).any()  # some cross the gate
            ends = seen[-1, len(queries) - len(inside) - len(outside):]
            assert len(inside) and len(outside)
            assert ends[: len(inside)].all() and not ends[len(inside):].any()
        if name != "duplicates":  # a map point at a tie certifies nothing
            assert sum(searched) < len(poses) * len(queries)


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(100):
            p = rng.uniform(-5, 5, 3)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            m = p + rng.normal(scale=0.1, size=3)
            analytic = residual_jacobian(p[None, :], n[None, :])[0]

            def residual(xi):
                t = RigidTransform(rotvec_to_matrix(xi[:3]), xi[3:])
                return float((t.apply(p) - m) @ n)

            fd = np.zeros(6)
            for k in range(6):
                step = np.zeros(6)
                step[k] = h
                fd[k] = (residual(step) - residual(-step)) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-5


class TestIcp:
    def test_fixed_point_stays_bitwise(self, room_cloud, room_index):
        scan = scan_from_map(room_cloud, ROBOT_POSE, 500, seed=2)
        res = point_to_plane_icp(scan, room_index, ROBOT_POSE)
        assert res.converged
        assert res.iterations <= 2
        d = pose_delta(res.transform, ROBOT_POSE)
        assert d.translation_norm < 1e-6
        assert d.rotation_angle < 1e-7

    def test_recovers_perturbed_init(self, room_cloud, room_index, room_scene):
        rng = np.random.default_rng(3)
        scan = Scan(raycast_scan(room_scene, ROBOT_POSE, ROOM_LIDAR, seed=4).points)
        for _ in range(5):
            offset = RigidTransform.from_rotvec(
                random_rotvec(rng, np.deg2rad(2.0)), rng.uniform(-0.03, 0.03, 3)
            )
            init = compose(ROBOT_POSE, offset)
            res = point_to_plane_icp(scan, room_index, init)
            assert res.converged
            d = pose_delta(res.transform, ROBOT_POSE)
            assert d.translation_norm < 1e-3
            assert d.rotation_angle < np.deg2rad(0.05)

    def _query_rows(self, monkeypatch) -> list[int]:
        rows = []
        query = MapIndex.query
        monkeypatch.setattr(
            MapIndex, "query", lambda self, pts, *a: rows.append(len(pts)) or query(self, pts, *a)
        )
        return rows

    def test_all_zero_weights_starves(self, room_cloud, room_index, monkeypatch):
        scan = scan_from_map(room_cloud, ROBOT_POSE, 100, seed=5)
        scan = Scan(points=scan.points, weights=np.zeros(100))
        rows = self._query_rows(monkeypatch)
        res = point_to_plane_icp(scan, room_index, ROBOT_POSE)
        assert not res.converged
        assert res.correspondences == 0
        assert rows == [0] and res.iterations == 1  # one query, of no point

    def test_queries_only_positive_weight_points(self, room_cloud, room_index, monkeypatch):
        scan = scan_from_map(room_cloud, ROBOT_POSE, 400, seed=6)
        weights = np.random.default_rng(6).uniform(0.0, 1.0, 400)
        weights[::3] = 0.0
        rows = self._query_rows(monkeypatch)
        res = point_to_plane_icp(Scan(scan.points, weights=weights), room_index, ROBOT_POSE)
        assert res.converged and len(rows) == res.iterations
        assert rows == [int((weights > 0).sum())] * res.iterations
        assert res.correspondences == rows[-1]

    def test_zero_weight_points_leave_the_result_bit_identical(self, cluttered_room, room_index):
        scan, _, start = cluttered_room
        weights = np.random.default_rng(19).uniform(0.0, 1.0, len(scan))
        weights[weights < 0.4] = 0.0
        weighted = Scan(points=scan.points, weights=weights)
        run = (weighted, room_index, start, at_the_gate(IcpConfig()))
        assert_bit_identical(point_to_plane_icp(*run), irls_icp(*run))

    def test_empty_scan_never_throws(self, room_index):
        res = point_to_plane_icp(Scan(points=np.zeros((0, 3))), room_index, ROBOT_POSE)
        assert not res.converged
        assert res.correspondences == 0
        assert res.iterations == 0

    def test_divergence_reports_not_converged(self, room_index):
        # a scan far outside the gating distance starves immediately
        scan = Scan(points=np.full((50, 3), 50.0))
        cfg = IcpConfig(max_iterations=5)
        res = point_to_plane_icp(scan, room_index, RigidTransform.identity(), cfg)
        assert not res.converged

    def test_linearized_objective_non_increasing(self, room_cloud, room_index):
        # Huber at the gate, fixed correspondences: the step is the
        # Gauss-Newton step, which cannot increase the linearized cost it
        # minimizes
        rng = np.random.default_rng(6)
        scan = scan_from_map(room_cloud, ROBOT_POSE, 400, seed=7)
        init = compose(
            ROBOT_POSE,
            RigidTransform.from_rotvec([0.004, -0.003, 0.008], [0.02, -0.01, 0.015]),
        )
        world = init.apply(scan.points)
        idx, valid = room_index.query(world, 0.5)
        p = world[valid]
        m = room_index.cloud.points[idx[valid]]
        n = normals_at(room_index.cloud, idx[valid])
        w = np.ones(len(p))
        residuals = np.einsum("ij,ij->i", p - m, n)
        jac = residual_jacobian(p, n)
        step = huber_newton_step(jac, residuals, w, 0.5)
        assert step is not None
        assert np.array_equal(step, gauss_newton_step(jac, residuals, w))
        linearized_after = residuals + jac @ step
        assert (linearized_after**2).sum() <= (residuals**2).sum() + 1e-12

    def test_weight_scaling_leaves_step_unchanged(self, room_cloud, room_index):
        rng = np.random.default_rng(8)
        scan = scan_from_map(room_cloud, ROBOT_POSE, 300, seed=9)
        world = compose(
            ROBOT_POSE, RigidTransform.from_rotvec([0, 0, 0.01], [0.02, 0, 0])
        ).apply(scan.points)
        idx, valid = room_index.query(world, 0.5)
        p, m = world[valid], room_index.cloud.points[idx[valid]]
        n = normals_at(room_index.cloud, idx[valid])
        w = rng.uniform(0.1, 1.0, size=len(p))
        jac, residuals = residual_jacobian(p, n), np.einsum("ij,ij->i", p - m, n)
        base = gauss_newton_step(jac, residuals, w)
        for lam in (3.7, 0.02, 250.0):
            scaled = gauss_newton_step(jac, residuals, lam * w)
            assert np.max(np.abs(scaled - base)) < 1e-10

    def test_uniform_density_weights_match_unweighted(self, room_cloud, room_index):
        scan = scan_from_map(room_cloud, ROBOT_POSE, 400, seed=10)
        init = compose(ROBOT_POSE, RigidTransform.from_rotvec([0, 0, 0.01], [0.02, -0.01, 0]))
        plain = point_to_plane_icp(scan, room_index, init)
        uniform = weights_linear(
            Scan(points=scan.points, densities=np.full(len(scan), 0.7)), 0.1
        )
        weighted = point_to_plane_icp(uniform, room_index, init)
        assert np.max(np.abs(plain.transform.rotation - weighted.transform.rotation)) < 1e-9
        assert np.max(np.abs(plain.transform.translation - weighted.transform.translation)) < 1e-9


# The paper's set-up in the test room: far wall 0.3 m off the plan, two boxes
# and a person standing in the room, range noise, a start 6 cm / 1 deg off.
CLUTTER_LIDAR = LidarSpec(
    ring_elevations_deg=tuple(np.linspace(-15, 15, 16)), azimuth_step_deg=2.0, range_noise_m=0.01
)
REF_STAGE = IcpConfig(max_correspondence_m=0.35, huber_scale_m=0.015)


@pytest.fixture(scope="module")
def cluttered_room(deviated_room, room_cloud):
    """(scan, reference map, start pose) in the deviated, cluttered room."""
    clutter = (
        make_box_surface("box_1", center=[4.5, 1.5, 0.5], size=[0.8, 0.6, 1.0],
                         yaw_rad=np.deg2rad(20.0)),
        make_box_surface("box_2", center=[1.2, 4.6, 0.4], size=[0.6, 0.6, 0.8]),
        make_box_surface("worker", center=[4.0, 4.5, 0.9], size=[0.5, 0.4, 1.8]),
    )
    scene = Scene(as_built=deviated_room[1], clutter=clutter)
    pose = RigidTransform(np.eye(3), [3.0, 2.6, 0.45])
    scan = Scan(raycast_scan(scene, pose, CLUTTER_LIDAR, seed=11).points)
    start = RigidTransform.from_rotvec([0, 0, np.deg2rad(1.0)], [3.05, 2.56, 0.45])
    return scan, MapIndex(room_cloud.subset(["floor", "wall_a", "wall_b"])), start


@pytest.fixture(scope="module")
def c4_frame(tmp_path_factory):
    """(scan, maps, config) of the first frame of acceptance criterion 4."""
    cfg = load_config(deviation_config(tmp_path_factory.mktemp("c4")))
    scan = raycast_scan(cfg.scene, cfg.robot_pose, cfg.lidar, seed=cfg.seed)
    return scan, assemble_scene(cfg), cfg


class TestHuberNewton:
    """point_to_plane_icp against irls_icp, the solver it replaced."""

    def _check_stages(self, scan, stages, start):
        """Run each (map, config) stage from the previous one's pose; each
        must land where the reference run to its fixed point lands."""
        results = []
        for map_index, cfg in stages:
            res = point_to_plane_icp(scan, map_index, start, cfg)
            ref = irls_icp(scan, map_index, start, run_to_fixed_point(cfg))
            assert res.converged and ref.converged
            assert_same_pose(res.transform, ref.transform)
            results.append((res, ref))
            start = res.transform
        return results

    def test_stages_match_reference_in_cluttered_room(self, cluttered_room, room_index):
        scan, ref_map, start = cluttered_room
        self._check_stages(scan, [(room_index, IcpConfig()), (ref_map, REF_STAGE)], start)

    def test_stages_match_reference_on_c4_frame(self, c4_frame):
        scan, maps, cfg = c4_frame
        stages = [(maps.full_map, cfg.selective.full_icp), (maps.ref_map, cfg.selective.selective_icp)]
        self._check_stages(scan, stages, cfg.initial_pose)

    def test_c4_full_stage_ends_at_reference_cost(self, c4_frame):
        # the inlier Hessian is rank-deficient on the way; a Newton step
        # taken there drops the gradient outside its range and stalls ~30 %
        # above the minimum
        scan, maps, cfg = c4_frame
        full_cfg = cfg.selective.full_icp
        res = point_to_plane_icp(scan, maps.full_map, cfg.initial_pose, full_cfg)
        ref = irls_icp(scan, maps.full_map, cfg.initial_pose, run_to_fixed_point(full_cfg))
        ref_cost = huber_cost(scan, maps.full_map, ref.transform, full_cfg)
        assert huber_cost(scan, maps.full_map, res.transform, full_cfg) <= ref_cost * (1 + 1e-6)

    def test_reference_stage_converges_in_few_iterations(self, cluttered_room, room_index):
        # the IRLS step alone needs 34 iterations here
        scan, ref_map, start = cluttered_room
        full = point_to_plane_icp(scan, room_index, start)
        res = point_to_plane_icp(scan, ref_map, full.transform, REF_STAGE)
        assert res.converged
        assert res.iterations <= 15

    def test_one_map_query_per_iteration(self, cluttered_room, room_index, monkeypatch):
        scan, ref_map, start = cluttered_room
        calls = []
        query = MapIndex.query
        monkeypatch.setattr(MapIndex, "query", lambda self, *a: calls.append(1) or query(self, *a))
        res = point_to_plane_icp(scan, ref_map, start, REF_STAGE)
        assert res.iterations > 1 and len(calls) == res.iterations

    def test_one_jacobian_per_iteration(self, cluttered_room, room_index, monkeypatch):
        # the Newton step is refused on one of these 4 iterations, and the
        # IRLS step taken instead reuses that iteration's Jacobian
        scan, _, start = cluttered_room
        jacobians = counted(monkeypatch, registration, "residual_jacobian")
        irls_steps = counted(monkeypatch, registration, "gauss_newton_step")
        res = point_to_plane_icp(scan, room_index, start)
        assert res.converged and len(irls_steps) == 1
        assert len(jacobians) == res.iterations

    def test_huber_at_the_gate_is_bit_identical(self, cluttered_room, room_index, c4_frame):
        scan, ref_map, start = cluttered_room
        rng = np.random.default_rng(18)
        weighted = Scan(points=scan.points, weights=rng.uniform(0.0, 1.0, len(scan)))
        squared = at_the_gate(IcpConfig())
        c4_scan, maps, cfg = c4_frame
        runs = [
            (scan, room_index, start, squared),
            (weighted, room_index, start, squared),
            (scan, ref_map, start, at_the_gate(REF_STAGE)),
            (c4_scan, maps.full_map, cfg.initial_pose, squared),
        ]
        for run in runs:
            assert_bit_identical(point_to_plane_icp(*run), irls_icp(*run))


class TestCertifiedQueries:
    """point_to_plane_icp searches the kd-tree only for the points whose
    nearest map point may have changed, with the result of searching all."""

    def test_searches_far_fewer_rows_for_the_reference_result(
        self, cluttered_room, room_index, monkeypatch
    ):
        scan, _, start = cluttered_room
        weights = np.random.default_rng(18).uniform(0.0, 1.0, len(scan))
        weights[weights < 0.2] = 0.0
        cfg = run_to_fixed_point(at_the_gate(IcpConfig()))
        run = (Scan(scan.points, weights=weights), room_index, start, cfg)
        ref = irls_icp(*run)  # searches every point on every iteration
        tree = CountingTree(room_index._tree)
        monkeypatch.setattr(room_index, "_tree", tree)
        res = point_to_plane_icp(*run)
        assert_bit_identical(res, ref)
        # 11,759 of 23,010 rows here (10 iterations of 2,301 weighted points):
        # all in the first two, then 91, 80, 72, 50, 18, 1, 0.1 and 0 %
        assert res.iterations >= 8
        assert tree.rows < 0.6 * res.iterations * int((weights > 0).sum())

    def test_huber_stages_match_searching_every_point(
        self, cluttered_room, room_index, c4_frame, monkeypatch
    ):
        scan, ref_map, start = cluttered_room
        c4_scan, maps, cfg = c4_frame
        runs = [
            (scan, room_index, start, IcpConfig()),
            (scan, ref_map, start, REF_STAGE),
            (c4_scan, maps.full_map, cfg.initial_pose, cfg.selective.full_icp),
            (c4_scan, maps.ref_map, cfg.initial_pose, cfg.selective.selective_icp),
        ]
        certified = [point_to_plane_icp(*run) for run in runs]
        query = MapIndex.query
        monkeypatch.setattr(MapIndex, "query", lambda self, pts, gate, *_: query(self, pts, gate))
        for run, res in zip(runs, certified):
            assert_bit_identical(res, point_to_plane_icp(*run))


class TestNewtonStep:
    def _matches(self, room_cloud, n, seed, offsets):
        """n map points moved off their surface by `offsets` along the normal."""
        pick = np.random.default_rng(seed).choice(len(room_cloud), size=n, replace=False)
        m, nrm = room_cloud.points[pick], normals_at(room_cloud, pick)
        return m + offsets[:, None] * nrm, nrm, offsets

    def test_equals_gauss_newton_when_all_residuals_are_inliers(self, room_cloud):
        rng = np.random.default_rng(19)
        p, nrm, r = self._matches(room_cloud, 400, 19, rng.uniform(-0.01, 0.01, 400))
        w = rng.uniform(0.1, 1.0, 400)
        jac = residual_jacobian(p, nrm)
        np.testing.assert_array_equal(huber_newton_step(jac, r, w, 0.02), gauss_newton_step(jac, r, w))

    def test_refused_when_inlier_hessian_is_rank_deficient(self, room_cloud):
        floor = room_cloud.subset(["floor"])
        p, nrm, r = self._matches(floor, 200, 20, np.full(200, 0.01))
        assert huber_newton_step(residual_jacobian(p, nrm), r, np.ones(200), 0.05) is None

    def test_refused_outside_trust_region(self, room_cloud):
        # a few inliers carry the Hessian, many outliers pull on the gradient
        offsets = np.where(np.arange(600) < 60, 0.0, 0.3)
        p, nrm, r = self._matches(room_cloud, 600, 21, offsets)
        assert huber_newton_step(residual_jacobian(p, nrm), r, np.ones(600), 0.01) is None


class TestBudget:
    # from this start the match set grows on the second iteration, so the
    # summed robust cost rises there
    START = compose(ROBOT_POSE, RigidTransform.from_rotvec([0, 0, 0.3], [0.3, 0, 0]))

    def _scan(self, room_cloud):
        return scan_from_map(room_cloud, ROBOT_POSE, 500, seed=2)

    def test_budget_exhausted_only_when_cost_did_not_rise(self, room_cloud, room_index):
        scan = self._scan(room_cloud)
        one = point_to_plane_icp(scan, room_index, self.START, IcpConfig(max_iterations=1))
        two = point_to_plane_icp(scan, room_index, self.START, IcpConfig(max_iterations=2))
        assert (one.stop, two.stop) == ("budget_exhausted", "diverged")

    def test_full_stage_failure_reasons(self, room_cloud, room_index):
        scan = self._scan(room_cloud)
        reasons = [
            localize(
                scan, room_index, None, self.START, ("full", "full"),
                cfg=SelectiveConfig(full_icp=IcpConfig(max_iterations=k)),
            ).failure_reason
            for k in (1, 2)
        ]
        assert reasons == [
            FailureReason.FULL_ICP_BUDGET_EXHAUSTED, FailureReason.FULL_ICP_DIVERGED
        ]

    def test_selective_stage_budget_exhausted(self, cluttered_room, room_index):
        scan, ref_map, start = cluttered_room
        # the stage needs 7 iterations; its cost falls from the third to the fourth
        cfg = SelectiveConfig(selective_icp=dataclasses.replace(REF_STAGE, max_iterations=4))
        res = localize(scan, room_index, ref_map, start, ("selective", "full"), cfg=cfg)
        assert res.failure_reason is FailureReason.SELECTIVE_ICP_BUDGET_EXHAUSTED
        full, sel = res.stages
        assert full.converged and sel.iterations == 4

    def test_selective_stage_diverged(self, room_cloud, room_index):
        # against a reference map 0.57 m off, gated at 0.35 m, the reference
        # stage's matches grow 414 -> 600 on its second iteration, so its
        # summed robust cost rises there
        scan = scan_from_map(room_cloud, ROBOT_POSE, 600, seed=12)
        ref = shifted_map(room_cloud, [0.4, 0.4, 0.0])
        cfg = SelectiveConfig(
            selective_icp=IcpConfig(max_iterations=2, max_correspondence_m=0.35)
        )
        res = localize(scan, room_index, ref, ROBOT_POSE, ("selective", "full"), cfg=cfg)
        assert res.failure_reason is FailureReason.SELECTIVE_ICP_DIVERGED
        _, sel = result_record(res, "selective", "full")["stages"]
        assert sel["iterations"] == 2 and sel["matches"] == 600


class TestSelective:
    def _maps(self, room_cloud):
        full = MapIndex(room_cloud)
        ref = MapIndex(room_cloud.subset(["floor", "wall_a", "wall_b"]))
        return full, ref

    def test_consistent_scene_localizes(self, room_cloud, room_scene):
        full, ref = self._maps(room_cloud)
        scan = Scan(raycast_scan(room_scene, ROBOT_POSE, ROOM_LIDAR, seed=11).points)
        cfg = SelectiveConfig(
            selective_icp=IcpConfig(max_correspondence_m=0.35, huber_scale_m=0.02)
        )
        res = localize(scan, full, ref, ROBOT_POSE, ("selective", "full"), cfg=cfg)
        assert res.localized and len(res.stages) == 2
        d = pose_delta(res.transform, res.stages[0].transform)
        assert d.translation_norm < 0.02

    def test_manufactured_inconsistency_rejected(self, room_cloud):
        # reference map shifted 0.4 m: full and selective stages must disagree
        full = MapIndex(room_cloud)
        ref = shifted_map(room_cloud, [0.4, 0, 0])
        scan = scan_from_map(room_cloud, ROBOT_POSE, 600, seed=12)
        cfg = SelectiveConfig(tau_translation_m=0.15, tau_rotation_rad=0.05)
        res = localize(scan, full, ref, ROBOT_POSE, ("selective", "full"), cfg=cfg)
        assert not res.localized
        assert res.failure_reason is FailureReason.REJECTED_INCONSISTENT

    @pytest.mark.parametrize(
        "tau", [{"tau_translation_m": math.nan}, {"tau_translation_m": math.inf},
                {"tau_rotation_rad": math.nan}, {"tau_rotation_rad": math.inf},
                {"tau_rotation_rad": 0.0}],
    )
    def test_rejection_thresholds_finite_and_positive(self, tau):
        with pytest.raises(ValueError, match="rejection thresholds must be finite and > 0"):
            SelectiveConfig(**tau)

    def test_reference_starvation(self, room_cloud):
        full = MapIndex(room_cloud)
        ref = MapIndex(room_cloud.subset(["floor", "wall_a", "wall_b"]))
        # scan confined to the upper middle of the far wall: nothing lands
        # within the gate of any reference surface
        rng = np.random.default_rng(13)
        sel = (
            (room_cloud.points[:, 1] > 5.0)
            & (room_cloud.points[:, 2] > 1.0)
            & (room_cloud.points[:, 0] > 2.0)
            & (room_cloud.points[:, 0] < 4.0)
        )
        pick = rng.choice(np.flatnonzero(sel), size=200, replace=False)
        scan = Scan(points=invert(ROBOT_POSE).apply(room_cloud.points[pick]))
        cfg = SelectiveConfig(
            selective_icp=IcpConfig(max_correspondence_m=0.3, min_correspondences=30)
        )
        res = localize(scan, full, ref, ROBOT_POSE, ("selective", "full"), cfg=cfg)
        assert not res.localized
        assert res.failure_reason is FailureReason.TOO_FEW_REFERENCE_MATCHES

    def test_full_stage_divergence_reported(self, room_cloud):
        full = MapIndex(room_cloud)
        ref = MapIndex(room_cloud.subset(["floor", "wall_a", "wall_b"]))
        scan = Scan(points=np.full((100, 3), 80.0))
        res = localize(scan, full, ref, RigidTransform.identity(), ("selective", "full"))
        assert res.failure_reason is FailureReason.FULL_ICP_DIVERGED
        assert [stage.stop for stage in res.stages] == ["starved"]


class TestLocalizeDispatch:
    def _fused_scan(self, room_cloud, n=500, seed=14):
        scan = scan_from_map(room_cloud, ROBOT_POSE, n, seed=seed)
        rng = np.random.default_rng(seed + 1)
        densities = np.clip(rng.normal(0.8, 0.05, n), 0, 1)
        return Scan(points=scan.points, densities=densities)

    def test_full_full(self, room_cloud, room_index):
        scan = self._fused_scan(room_cloud)
        res = localize(scan, room_index, None, ROBOT_POSE, ("full", "full"))
        assert res.localized
        assert len(res.stages) == 1

    def test_selective_filtered(self, room_cloud):
        full = MapIndex(room_cloud)
        ref = MapIndex(room_cloud.subset(["floor", "wall_a", "wall_b"]))
        scan = self._fused_scan(room_cloud)
        cfg = SelectiveConfig(
            selective_icp=IcpConfig(max_correspondence_m=0.35, huber_scale_m=0.02)
        )
        res = localize(scan, full, ref, ROBOT_POSE, ("selective", "filtered"), cfg=cfg)
        assert res.localized

    def test_full_weighted(self, room_cloud, room_index):
        scan = self._fused_scan(room_cloud)
        res = localize(scan, room_index, None, ROBOT_POSE, ("full", "weighted"))
        assert res.localized

    def test_full_variant_ignores_scan_weights(self, room_cloud, room_index):
        # all points at unit weight, whatever weights the scan carries
        scan = scan_from_map(room_cloud, ROBOT_POSE, 500, seed=14)
        rng = np.random.default_rng(15)
        weights = np.where(rng.random(500) < 0.3, rng.random(500), 0.0)
        start = compose(ROBOT_POSE, RigidTransform.from_rotvec([0, 0, 0.02], [0.05, 0, 0]))
        records = [
            result_record(localize(s, room_index, None, start, ("full", "full")), "full", "full")
            for s in (Scan(scan.points, weights=weights), scan)
        ]
        assert records[0] == records[1]
        assert records[0]["matches"] == 500

    def test_unknown_method_rejected(self, room_cloud, room_index):
        scan = self._fused_scan(room_cloud)
        with pytest.raises(ValueError):
            localize(scan, room_index, None, ROBOT_POSE, ("full", "trimmed"))

    def test_selective_needs_ref_map(self, room_cloud, room_index):
        scan = self._fused_scan(room_cloud)
        with pytest.raises(ValueError):
            localize(scan, room_index, None, ROBOT_POSE, ("selective", "full"))

    def test_empty_scan_fails_cleanly(self, room_index):
        empty = Scan(points=np.zeros((0, 3)), densities=np.zeros(0))
        for scan_method in ("full", "filtered", "weighted"):
            res = localize(empty, room_index, None, ROBOT_POSE, ("full", scan_method))
            assert not res.localized
            assert res.failure_reason is FailureReason.FULL_ICP_DIVERGED


class TestResultRecord:
    def test_localized_record(self, room_cloud, room_index):
        scan = scan_from_map(room_cloud, ROBOT_POSE, 200, seed=15)
        res = localize(scan, room_index, None, ROBOT_POSE, ("full", "full"))
        record = result_record(res, "full", "full")
        assert record["outcome"] == "localized"
        assert len(record["transform"]["r"]) == 9
        assert len(record["transform"]["t"]) == 3
        assert "failure_reason" not in record
        assert record["matches"] > 0
        (stage,) = res.stages
        assert record["stages"] == [
            {"iterations": stage.iterations, "matches": stage.correspondences,
             "residual_m": stage.residual_rms_m}
        ]

    def test_failed_second_stage_keeps_first_stage(self, cluttered_room, room_index):
        scan, ref_map, start = cluttered_room
        cfg = SelectiveConfig(selective_icp=dataclasses.replace(REF_STAGE, max_iterations=2))
        res = localize(scan, room_index, ref_map, start, ("selective", "full"), cfg=cfg)
        record = result_record(res, "selective", "full")
        assert record["outcome"] == "failed"
        full, sel = record["stages"]
        assert (full["iterations"], full["matches"]) == (
            res.stages[0].iterations, res.stages[0].correspondences
        )
        assert (sel["iterations"], sel["matches"], sel["residual_m"]) == (
            record["iterations"], record["matches"], record["residual_m"]
        )
        assert sel["iterations"] == 2 and full["matches"] != sel["matches"]

    def test_failed_record(self, room_index):
        scan = Scan(points=np.full((40, 3), 90.0))
        res = localize(scan, room_index, None, RigidTransform.identity(), ("full", "full"))
        record = result_record(res, "full", "full")
        assert record["outcome"] == "failed"
        assert record["transform"] is None
        assert record["failure_reason"] == "full_icp_diverged"
        assert record["stages"] == [{"iterations": 1, "matches": 0, "residual_m": 0.0}]

    def test_exactly_one_outcome_enforced(self):
        with pytest.raises(ValueError):
            LocalizationResult(None, None)
        with pytest.raises(ValueError):
            LocalizationResult(RigidTransform.identity(), FailureReason.FULL_ICP_DIVERGED)


class TestPoseCost:
    def test_cost_zero_at_exact_alignment(self, room_cloud, room_index):
        scan = scan_from_map(room_cloud, ROBOT_POSE, 300, seed=16)
        cost = pose_to_plane_cost(scan, room_index, ROBOT_POSE)
        assert cost == pytest.approx(0.0, abs=1e-18)

    def test_cost_grows_off_alignment(self, room_cloud, room_index):
        scan = scan_from_map(room_cloud, ROBOT_POSE, 300, seed=17)
        off = compose(ROBOT_POSE, RigidTransform(np.eye(3), [0.05, 0, 0]))
        assert pose_to_plane_cost(scan, room_index, off) > pose_to_plane_cost(
            scan, room_index, ROBOT_POSE
        )
