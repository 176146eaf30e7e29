import itertools
import warnings
import weakref

import numpy as np
import pytest

from planloc import sensor_sim
from planloc.geometry import RigidTransform, compose
from planloc.model import (
    BuildingModel, Floorplan2D, Surface, WallSegment, extrude_floorplan, make_box_surface
)
from planloc.sensor_sim import (
    Actor,
    CameraSpec,
    DensityImage,
    DensityOracleParams,
    LidarSpec,
    PrismSpec,
    Scan,
    Scene,
    default_camera_rig,
    generate_trial_sequence,
    iter_trial_sequence,
    prism_position,
    raycast_scan,
    read_density_pgm,
    read_scan_csv,
    render_density_image,
    write_density_pgm,
    write_scan_csv,
    _raycast,
)


def wall_ahead_scene(distance: float = 2.0) -> Scene:
    """A single wall plane facing the origin at x = distance."""
    wall = make_box_surface("wall", center=[distance + 0.1, 0, 0], size=[0.2, 10, 6])
    return Scene(as_built=BuildingModel((wall,)))


COARSE_LIDAR = LidarSpec(
    ring_elevations_deg=tuple(np.linspace(-10, 10, 5)),
    azimuth_step_deg=10.0,
    max_range_m=30.0,
    range_noise_m=0.0,
)


def all_pairs_raycast(origin, dirs, triangles, groups=None, chunk=2048):
    """Reference for `_raycast`: every ray against every triangle,
    Moller-Trumbore vectorized over ray chunks x all triangles; with
    `groups`, rays in none of them miss."""
    if groups is not None:
        t, tri = all_pairs_raycast(origin, dirs, triangles, chunk=chunk)
        grouped = np.zeros(len(dirs), dtype=bool)
        grouped[groups.rays] = True
        return np.where(grouped, t, np.inf), np.where(grouped, tri, -1)
    k = len(dirs)
    best_t = np.full(k, np.inf)
    best_tri = np.full(k, -1, dtype=np.int64)
    if len(triangles) == 0 or k == 0:
        return best_t, best_tri
    v0 = triangles[:, 0]
    e1 = triangles[:, 1] - v0
    e2 = triangles[:, 2] - v0
    for start in range(0, k, chunk):
        d = dirs[start : start + chunk]  # (C, 3)
        pvec = np.cross(d[:, None, :], e2[None, :, :])  # (C, M, 3)
        det = np.einsum("mj,cmj->cm", e1, pvec)
        ok = np.abs(det) > 1e-12
        inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        tvec = origin - v0  # (M, 3)
        u = np.einsum("mj,cmj->cm", tvec, pvec) * inv_det
        ok &= (u >= -1e-12) & (u <= 1.0 + 1e-12)
        qvec = np.cross(tvec, e1)  # (M, 3)
        v = np.einsum("cj,mj->cm", d, qvec) * inv_det
        ok &= (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
        t = np.einsum("mj,mj->m", e2, qvec)[None, :] * inv_det
        ok &= t > 1e-9
        t = np.where(ok, t, np.inf)
        tri = np.argmin(t, axis=1)
        tmin = t[np.arange(len(d)), tri]
        hit = np.isfinite(tmin)
        sl = slice(start, start + len(d))
        best_t[sl] = np.where(hit, tmin, np.inf)
        best_tri[sl] = np.where(hit, tri, -1)
    return best_t, best_tri


def unit_rows(rng, n):
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def triangle_soup(rng, n, extent=10.0):
    """`n` triangles of sizes from 1 cm to 5 m scattered in a cube."""
    centres = rng.uniform(-extent, extent, (n, 1, 3))
    sizes = np.exp(rng.uniform(np.log(0.01), np.log(5.0), (n, 1, 1)))
    return centres + sizes * rng.standard_normal((n, 3, 3))


def raycast_cases():
    """(origin, dirs, triangles) per named case for the broad-phase check."""
    rng = np.random.default_rng(20)
    cases = {}
    for seed in range(3):
        soup_rng = np.random.default_rng(seed)
        cases[f"soup{seed}"] = (
            soup_rng.uniform(-3, 3, 3), unit_rows(soup_rng, 2000), triangle_soup(soup_rng, 150)
        )
    lidar_dirs = LidarSpec(azimuth_step_deg=2.0).ray_directions()
    cases["lidar_grid_in_soup"] = (np.zeros(3), lidar_dirs, triangle_soup(rng, 200, 6.0))
    big = np.array([[[-5.0, -5.0, 0.2], [5.0, -5.0, 0.2], [0.0, 5.0, 0.2]]])
    cases["origin_inside_bounding_sphere"] = (
        np.zeros(3), unit_rows(rng, 2000), np.concatenate([big, triangle_soup(rng, 50, 4.0)])
    )
    behind = triangle_soup(rng, 60, 3.0)
    behind[..., 0] -= 8.0
    forward = unit_rows(rng, 1000)
    forward[:, 0] = np.abs(forward[:, 0])
    cases["triangles_behind_origin"] = (np.zeros(3), forward, behind)
    soup = triangle_soup(rng, 40, 4.0)
    cases["duplicated_triangles"] = (
        np.zeros(3), unit_rows(rng, 2000), np.concatenate([soup, soup[::-1], soup])
    )
    # a hexagonal fan at x = 2: six triangles share the centre, neighbours an edge
    ring = np.deg2rad(np.arange(0, 360, 60))
    rim = np.stack([np.full(6, 2.0), np.cos(ring), np.sin(ring)], axis=1)
    centre = np.array([2.0, 0.0, 0.0])
    fan = np.stack([np.repeat(centre[None], 6, 0), rim, np.roll(rim, -1, 0)], axis=1)
    targets = np.concatenate([[centre], rim, (rim + np.roll(rim, -1, 0)) / 2, (rim + centre) / 2])
    cases["shared_edges_and_vertices"] = (
        np.zeros(3), targets / np.linalg.norm(targets, axis=1, keepdims=True), fan
    )
    flat = np.array([[[3.0, -1.0, 0.0], [3.0, 0.0, 0.0], [3.0, 1.0, 0.0]]])
    cases["zero_area_triangle"] = (
        np.zeros(3),
        np.concatenate([[[1.0, 0.0, 0.0]], unit_rows(rng, 500)]),
        np.concatenate([flat, triangle_soup(rng, 20, 4.0)]),
    )
    ceiling = np.array([[[-9.0, -9.0, 2.5], [9.0, -9.0, 2.5], [0.0, 9.0, 2.5]]])
    floor = ceiling * [1.0, 1.0, -0.2]
    tilt = np.deg2rad(np.linspace(0.0, 12.0, 25))
    az = np.deg2rad(np.linspace(-180.0, 180.0, 25))
    cap = np.stack([np.sin(tilt)[:, None] * np.cos(az), np.sin(tilt)[:, None] * np.sin(az),
                    np.repeat(np.cos(tilt)[:, None], 25, 1)], axis=-1).reshape(-1, 3)
    cases["straight_up_and_down"] = (
        np.zeros(3),
        np.concatenate([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], cap, cap * [1, 1, -1]]),
        np.concatenate([ceiling, floor, triangle_soup(rng, 30, 4.0)]),
    )
    # planes 1e-8 to 1e-5 m from the origin at random rotations, generic and
    # axis-aligned: triangles around the plane's foot, hit within 1e-6 m of
    # the origin, and triangles to the side, met by rays grazing the plane
    # across their edges
    around, aside, grazing = [], [], []
    for h in np.repeat([1e-8, 1e-7, 1e-6, 1e-5], 2):
        if len(around) % 2:
            rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        else:
            rotation = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], 3)
        around.append(np.array([[3.0, 0.0, h], [-1.5, 2.6, h], [-1.5, -2.6, h]]) @ rotation.T)
        side = np.array([[4.0, -0.5, h], [6.0, 0.0, h], [4.0, 0.5, h]])
        aside.append(side @ rotation.T)
        uv = rng.uniform(-0.05, 1.05, (300, 2))
        aim = side[0] + uv[:, :1] * (side[1] - side[0]) + uv[:, 1:] * (side[2] - side[0])
        aim[:, 2] += rng.normal(0.0, 0.1 * h, 300)
        grazing.append(aim @ rotation.T)
    cases["plane_near_origin"] = (np.zeros(3), unit_rows(rng, 2000), np.stack(around))
    cases["grazing_plane_near_origin"] = (
        np.zeros(3), np.concatenate(grazing), np.stack(aside)
    )
    # rays on the edges (|x| = |y|) and corners (|x| = |y| = |z|) of the cube faces
    signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
    edge = rng.uniform(0.1, 3.0, (200, 1)) * np.concatenate(
        [np.repeat(signs, 25, 0)[:, :2], rng.uniform(-1, 1, (200, 1))], 1
    )
    corners = rng.uniform(0.1, 3.0, (400, 1)) * np.repeat(signs, 50, 0)
    cases["face_edges_and_corners"] = (
        np.zeros(3),
        np.concatenate([edge, np.roll(edge, 1, axis=1), np.roll(edge, 2, axis=1), corners]),
        np.concatenate([triangle_soup(rng, 150, 4.0), 3.0 * signs[:, None] * np.eye(3)]),
    )
    mixed = unit_rows(rng, 1000)
    mixed[rng.random(1000) < 0.3] = 0.0
    cases["zero_length_rows"] = (rng.uniform(-1, 1, 3), mixed, triangle_soup(rng, 60, 4.0))
    # a tilted floor that straddles the planes x = 0, y = 0 and z = 0, so
    # every cube face sees part of it
    floor = np.array([[[-20.0, -20.0, 0.0], [20.0, -20.0, 0.0], [0.0, 25.0, 0.0]]])
    floor[..., 2] = 0.2 * floor[..., 0] + 0.1 * floor[..., 1] - 0.5
    cases["floor_straddles_every_face"] = (
        np.zeros(3), np.concatenate([lidar_dirs, unit_rows(rng, 1000)]), floor
    )
    # far geometry: triangles 1e2 to 1e5 m from the origin, 0.1 % to 10 % of
    # that across, with rays aimed at their vertices and at points of their edges
    far, aims = [], []
    for dist in np.logspace(2, 5, 60):
        tri = dist * (unit_rows(rng, 1) + 10 ** rng.uniform(-3, -1) * rng.standard_normal((3, 3)))
        ends = rng.integers(0, 3, (30, 2))
        aims += [tri, tri[ends[:, 0]] + rng.random((30, 1)) * (tri[ends[:, 1]] - tri[ends[:, 0]])]
        far.append(tri)
    origin = rng.uniform(-1, 1, 3)
    cases["far_geometry"] = (origin, np.concatenate(aims) - origin, np.stack(far))
    # Each copy below is turned onto another face, side and sign by a signed
    # permutation, exact in floating point. Rays (1, b, c) with dyadic b <= 1/4,
    # and triangles w across at depth w that lie beyond the side plane
    # b = w / 4 of a group's box: by 2e-13 of their width, which the kernel's
    # tolerance still hits, by 1e-9 m and by half a hit margin, both inside
    # the margin, and by 1.01 hit margins, past it (a gap g in b lies g / r m
    # off the plane, r = sqrt(17) / 4; a hit margin is 1e-6 w + 1e-9 m).
    grid = np.stack(np.meshgrid([0.0, 1 / 16, 1 / 8, 3 / 16, 1 / 4], np.linspace(-0.25, 0.25, 5)))
    rays = np.concatenate([np.ones((25, 1)), grid.reshape(2, -1).T], axis=1)
    r = np.sqrt(17) / 4
    gaps = [(4.0, 8e-13), (5.0, 1e-9 * r), (6.0, 0.5 * 6.001e-6 * r), (7.0, 1.01 * 7.001e-6 * r)]
    past = [[[w, w / 4 + gap, -w / 2], [w, w / 4 + gap, w / 2], [w, 3 * w / 4, 0.0]]
            for w, gap in gaps]
    signed = [np.eye(3)[list(p)] * s for p in itertools.permutations(range(3))
              for s in itertools.product([-1.0, 1.0], repeat=3)]
    cases["side_plane_margin"] = (
        np.zeros(3),
        np.concatenate([rays @ p.T for p in signed]),
        np.concatenate([np.array(past) @ p.T for p in signed]),
    )
    # the same rays repeated, so that groups have boxes of zero width
    targets = triangle_soup(rng, 40, 4.0)
    origin = rng.uniform(-1, 1, 3)
    aim = np.concatenate([targets[:, 0], targets.mean(axis=1)])[rng.integers(0, 80, 1500)]
    cases["repeated_rays"] = (origin, aim - origin, targets)
    # triangles parallel to the plane through the origin that holds the
    # corner ray (1, 1/4, 1/4) of a dyadic grid's box, normal (-1/2, 1, 1):
    # in that plane, on the cone's side of it, and off its other side by half
    # and by twice a hit margin
    grid = np.stack(np.meshgrid(np.linspace(0, 0.25, 9), np.linspace(0, 0.25, 9)))
    rays = np.concatenate([np.ones((81, 1)), grid.reshape(2, -1).T], axis=1)
    flat = np.array([[1.0, -2.0], [1.0, 2.0], [3.0, 0.0]]) @ [[2.0, 0.5, 0.5], [0.0, 1.0, -1.0]]
    margin = 4 * np.sqrt(2) * 1e-6 + 1e-9  # longest edge 4 sqrt(2); |normal| = 3 / 2
    normal = np.array([-0.5, 1.0, 1.0])
    lean = [flat + h * normal for h in [0.0, -0.125, margin / 3, 4 * margin / 3]]
    cases["plane_holds_corner_ray"] = (
        np.zeros(3),
        np.concatenate([rays @ p.T for p in signed[::5]]),
        np.concatenate([np.array(lean) @ p.T for p in signed[::5]]),
    )
    # rays within rounding of the planes of triangles 100 m to 10 km across
    # that pass within 1e-13 m of the origin, a ray or two a cell: the
    # kernel's hits here come from rounding alone, and only the margin of
    # the triangle-plane test keeps them
    sheets, along = [], []
    heights = [0.0, 1e-15, -1e-15, 1e-14, -1e-14, 1e-13]
    for size, h, _ in itertools.product([1e2, 1e3, 1e4], heights, range(3)):
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        sheet = np.array([[0.5, -0.5, 0.0], [1.5, 0.0, 0.0], [0.5, 0.5, 0.0]]) * size
        sheet[:, 2] = h
        sheets.append(sheet @ rotation.T)
        ang = np.linspace(-0.4, 0.4, 20)
        along.append(np.stack([np.cos(ang), np.sin(ang), np.zeros(20)], 1) @ rotation.T)
    cases["rays_in_triangle_plane"] = (np.zeros(3), np.concatenate(along), np.stack(sheets))
    cases["empty_scene"] = (np.zeros(3), unit_rows(rng, 100), np.zeros((0, 3, 3)))
    cases["zero_rays"] = (np.zeros(3), np.zeros((0, 3)), triangle_soup(rng, 10))
    return cases


RAYCAST_CASES = raycast_cases()


class TestRaycast:
    def test_empty_scene(self):
        scene = Scene(as_built=BuildingModel(()))
        scan = raycast_scan(scene, RigidTransform.identity(), COARSE_LIDAR)
        assert len(scan) == 0

    def test_wall_ranges_match_ray_plane_oracle(self):
        scene = wall_ahead_scene(2.0)
        scan = raycast_scan(scene, RigidTransform.identity(), COARSE_LIDAR, seed=0)
        assert len(scan) > 0
        # oracle: analytic ray/plane intersection x = 2 gives range 2 / dir_x
        for p in scan.points:
            r = np.linalg.norm(p)
            direction = p / r
            assert r == pytest.approx(2.0 / direction[0], abs=1e-9)
        assert set(scan.classes) == {"building"}

    def test_clutter_closer_than_wall(self):
        wall = make_box_surface("wall", center=[3.1, 0, 0], size=[0.2, 10, 6])
        box = make_box_surface("box", center=[1.5, 0, 0], size=[0.4, 0.8, 0.8])
        scene = Scene(as_built=BuildingModel((wall,)), clutter=(box,))
        scan = raycast_scan(scene, RigidTransform.identity(), COARSE_LIDAR, seed=0)
        clutter = scan.classes == "clutter"
        assert clutter.any() and (~clutter).any()
        # oracle: clutter face plane at x = 1.3, wall face plane at x = 3.0
        ranges = np.linalg.norm(scan.points, axis=1)
        dir_x = scan.points[:, 0] / ranges
        np.testing.assert_allclose(ranges[clutter], 1.3 / dir_x[clutter], atol=1e-9)
        np.testing.assert_allclose(ranges[~clutter], 3.0 / dir_x[~clutter], atol=1e-9)

    def test_points_lie_on_geometry_within_noise(self):
        spec = LidarSpec(
            ring_elevations_deg=COARSE_LIDAR.ring_elevations_deg,
            azimuth_step_deg=10.0,
            max_range_m=30.0,
            range_noise_m=0.02,
        )
        scene = wall_ahead_scene(2.0)
        pose = RigidTransform.from_rotvec([0, 0, 0.2], [0.3, -0.1, 0.1])
        scan = raycast_scan(scene, pose, spec, seed=5)
        world = pose.apply(scan.points)
        # soundness: every noisy point is within 3 sigma of the wall plane x = 2
        assert np.max(np.abs(world[:, 0] - 2.0)) <= 3 * spec.range_noise_m + 1e-6

    def test_noise_never_changes_classes(self):
        wall = make_box_surface("wall", center=[3.1, 0, 0], size=[0.2, 10, 6])
        box = make_box_surface("box", center=[1.5, 0, 0], size=[0.4, 0.8, 0.8])
        scene = Scene(as_built=BuildingModel((wall,)), clutter=(box,))
        noisy_spec = LidarSpec(
            ring_elevations_deg=COARSE_LIDAR.ring_elevations_deg,
            azimuth_step_deg=10.0,
            max_range_m=30.0,
            range_noise_m=0.01,
        )
        clean = raycast_scan(scene, RigidTransform.identity(), COARSE_LIDAR, seed=9)
        noisy = raycast_scan(scene, RigidTransform.identity(), noisy_spec, seed=9)
        assert len(clean) == len(noisy)
        np.testing.assert_array_equal(clean.classes, noisy.classes)

    def test_max_range_drops_far_hits(self):
        scene = wall_ahead_scene(2.0)
        short = LidarSpec(
            ring_elevations_deg=(0.0,), azimuth_step_deg=30.0, max_range_m=1.5,
            range_noise_m=0.0,
        )
        scan = raycast_scan(scene, RigidTransform.identity(), short)
        assert len(scan) == 0

    def test_actor_moves_with_time(self):
        wall = make_box_surface("wall", center=[5.1, 0, 0], size=[0.2, 10, 6])
        actor = Actor(
            surface=make_box_surface("runner", center=[2, -2, 0], size=[0.5, 0.5, 1.8]),
            velocity=(0.0, 1.0, 0.0),
        )
        scene = Scene(as_built=BuildingModel((wall,)), actors=(actor,))
        lidar = LidarSpec(ring_elevations_deg=(0.0,), azimuth_step_deg=2.0, range_noise_m=0.0)
        hit_t0 = raycast_scan(scene, RigidTransform.identity(), lidar, time_s=0.0)
        hit_t2 = raycast_scan(scene, RigidTransform.identity(), lidar, time_s=2.0)
        y_t0 = hit_t0.points[hit_t0.classes == "actor", 1].mean()
        y_t2 = hit_t2.points[hit_t2.classes == "actor", 1].mean()
        assert y_t2 - y_t0 == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize(
        "cell, group_rays",
        [(1 / 32, 1), (sensor_sim._CELL, sensor_sim._GROUP_RAYS)],
        ids=["cells", "merged"],
    )
    @pytest.mark.parametrize("case", list(RAYCAST_CASES))
    def test_broad_phase_matches_all_pairs(self, case, cell, group_rays, monkeypatch):
        monkeypatch.setattr(sensor_sim, "_CELL", cell)
        monkeypatch.setattr(sensor_sim, "_GROUP_RAYS", group_rays)
        origin, dirs, triangles = RAYCAST_CASES[case]
        t, tri = _raycast(origin, dirs, triangles, sensor_sim._ray_groups(dirs))
        ref_t, ref_tri = all_pairs_raycast(origin, dirs, triangles)
        assert t.tobytes() == ref_t.tobytes()
        np.testing.assert_array_equal(tri, ref_tri)

    def test_cell_groups_split_rays_by_face(self):
        """Each ray in one group, each group on one face and within `_CHUNK`:
        50 rays a face, fewer than `_GROUP_RAYS`, and one cell over `_CHUNK`."""
        rng = np.random.default_rng(4)
        face = np.concatenate([np.repeat(np.arange(6), 50), np.full(5000, 3)])
        coords = np.concatenate([rng.uniform(-1, 1, (300, 2)), np.full((5000, 2), 0.3)])
        coords[::7] = rng.choice([-1.0, 1.0], (len(coords[::7]), 2))
        order, starts = sensor_sim._cell_groups(face, coords)
        np.testing.assert_array_equal(np.sort(order), np.arange(len(face)))
        groups = np.split(order, starts[1:])
        assert starts[0] == 0 and all(0 < len(g) <= sensor_sim._CHUNK for g in groups)
        assert all(len(set(face[g])) == 1 for g in groups)

    def test_scan_and_images_match_all_pairs(self, monkeypatch):
        """The public simulators give the same bytes with the all-pairs loop,
        in a 2 x 2 grid of rooms with clutter and a moving actor, seen by the
        default LiDAR and camera rig at coarser steps: called alone, and over
        a 4-frame sequence, whose later frames cast the actor over the first
        frame's groupings."""
        lines = [0.0, 4.0, 8.0]
        walls = [WallSegment([x, 0], [x, 8], 0.2, f"x{x:g}") for x in lines] + [
            WallSegment([0, y], [8, y], 0.2, f"y{y:g}") for y in lines
        ]
        plan = Floorplan2D(tuple(walls), 2.5, np.array([[0, 0], [8, 0], [8, 8], [0, 8]], float))
        crate = make_box_surface("crate", [1.2, 2.8, 0.4], [0.6, 0.5, 0.8], yaw_rad=0.3)
        walker = Actor(make_box_surface("walker", [2.9, 1.0, 0.9], [0.4, 0.4, 1.8]), (0.3, 0.1, 0))
        scene = Scene(as_built=extrude_floorplan(plan), clutter=(crate,), actors=(walker,))
        pose = RigidTransform.from_rotvec([0.0, 0.0, 0.4], [2.0, 2.2, 0.45])
        lidar, cameras = LidarSpec(azimuth_step_deg=2.0), default_camera_rig(width=40, height=30)
        oracle = DensityOracleParams()

        def simulate():
            scan = raycast_scan(scene, pose, lidar, time_s=0.6, seed=3)
            images = [
                render_density_image(scene, compose(pose, cam.extrinsic), cam, oracle, 0.6, seed=4)
                for cam in cameras
            ]
            frames = generate_trial_sequence(
                scene, pose, 4, lidar, cameras, PrismSpec(), oracle, seed=5, period_s=0.6
            )
            return [(scan, images), *((f.scan, f.images) for f in frames)]

        got = simulate()
        monkeypatch.setattr(sensor_sim, "_raycast", all_pairs_raycast)
        want = simulate()
        for (scan, images), (ref_scan, ref_images) in zip(got, want, strict=True):
            assert set(scan.classes) == {"building", "clutter", "actor"}
            assert scan.points.tobytes() == ref_scan.points.tobytes()
            np.testing.assert_array_equal(scan.classes, ref_scan.classes)
            for image, ref in zip(images, ref_images, strict=True):
                assert image.values.tobytes() == ref.values.tobytes()
                assert image.depth.tobytes() == ref.depth.tobytes()

    def test_lowest_index_wins_a_tie(self):
        origin, dirs, triangles = RAYCAST_CASES["duplicated_triangles"]
        t, tri = _raycast(origin, dirs, triangles, sensor_sim._ray_groups(dirs))
        assert np.isfinite(t).sum() > 100
        assert tri.max() < len(triangles) // 3

    def test_rays_through_shared_edges_and_vertices_hit(self):
        origin, dirs, triangles = RAYCAST_CASES["shared_edges_and_vertices"]
        t, tri = _raycast(origin, dirs, triangles, sensor_sim._ray_groups(dirs))
        assert np.isfinite(t).all()
        np.testing.assert_allclose(t * dirs[:, 0], 2.0, atol=1e-12)


class TestPrism:
    def test_identity_pose(self):
        prism = PrismSpec(offset=np.array([0, 0, 0.5]))
        np.testing.assert_allclose(
            prism_position(RigidTransform.identity(), prism), [0, 0, 0.5], atol=0
        )

    def test_translated_pose(self):
        prism = PrismSpec(offset=np.array([0, 0, 0.5]))
        pose = RigidTransform(np.eye(3), [1, 0, 0])
        np.testing.assert_allclose(prism_position(pose, prism), [1, 0, 0.5], atol=0)

    def test_rotated_pose(self):
        prism = PrismSpec(offset=np.array([1, 0, 0]))
        pose = RigidTransform.from_rotvec([0, 0, np.pi / 2])
        np.testing.assert_allclose(prism_position(pose, prism), [0, 1, 0], atol=1e-12)


@pytest.mark.parametrize("hfov_deg", [0.0, 180.0, -10.0, 200.0])
def test_camera_rig_refuses_a_degenerate_field_of_view(hfov_deg):
    with pytest.raises(ValueError, match="hfov_deg must lie strictly between 0 and 180"):
        default_camera_rig(hfov_deg=hfov_deg)


@pytest.mark.parametrize("size", [0, -3])
@pytest.mark.parametrize("name", ["width", "height"])
def test_camera_rig_refuses_a_size_below_one_pixel(name, size):
    with pytest.raises(ValueError, match=f"camera {name} must be >= 1 pixel, got {size}"):
        default_camera_rig(**{name: size})


def facing_camera(width=64, height=48) -> CameraSpec:
    (cam,) = default_camera_rig(count=1, width=width, height=height, mount=(0, 0, 0))
    return cam


class TestDensityRender:
    def test_degenerate_oracle_uniform_background(self):
        scene = wall_ahead_scene(2.0)
        oracle = DensityOracleParams(sigma=0.0, corruption_rate=0.0)
        cam = facing_camera()
        img = render_density_image(scene, cam.extrinsic, cam, oracle, seed=0)
        np.testing.assert_array_equal(img.values, np.full((48, 64), 0.8))

    def test_two_level_silhouette(self):
        wall = make_box_surface("wall", center=[3.1, 0, 0], size=[0.2, 10, 8])
        box = make_box_surface("box", center=[1.5, 0, 0.2], size=[0.3, 0.8, 0.8])
        scene = Scene(as_built=BuildingModel((wall,)), clutter=(box,))
        oracle = DensityOracleParams(sigma=0.0, corruption_rate=0.0)
        cam = facing_camera()
        img = render_density_image(scene, cam.extrinsic, cam, oracle, seed=0)
        assert set(np.unique(img.values)) == {0.2, 0.8}
        # the box silhouette is the low-score blob in the image center
        assert img.values[24, 32] == 0.2
        assert img.values[0, 0] == 0.8

    def test_full_corruption_drowns_background(self):
        scene = wall_ahead_scene(2.0)
        oracle = DensityOracleParams(sigma=0.0, corruption_rate=1.0)
        cam = facing_camera()
        img = render_density_image(scene, cam.extrinsic, cam, oracle, seed=0)
        np.testing.assert_array_equal(img.values, np.full((48, 64), 0.2))

    def test_background_statistics(self):
        scene = wall_ahead_scene(2.0)
        oracle = DensityOracleParams(sigma=0.1, corruption_rate=0.0)
        cam = facing_camera(width=128, height=96)
        img = render_density_image(scene, cam.extrinsic, cam, oracle, seed=1)
        n = img.values.size
        assert abs(img.values.mean() - 0.8) < 3 * 0.1 / np.sqrt(n) + 1e-3

    def test_targeted_corruption(self):
        wall_a = make_box_surface("wall_a", center=[2.1, 0, 0], size=[0.2, 10, 8])
        scene = Scene(as_built=BuildingModel((wall_a,)))
        oracle = DensityOracleParams(
            sigma=0.0, corruption_rate=1.0, corrupt_surface_ids=("other",)
        )
        cam = facing_camera()
        img = render_density_image(scene, cam.extrinsic, cam, oracle, seed=0)
        np.testing.assert_array_equal(img.values, np.full((48, 64), 0.8))
        oracle_hit = DensityOracleParams(
            sigma=0.0, corruption_rate=1.0, corrupt_surface_ids=("wall_a",)
        )
        img2 = render_density_image(scene, cam.extrinsic, cam, oracle_hit, seed=0)
        np.testing.assert_array_equal(img2.values, np.full((48, 64), 0.2))

    def test_depth_buffer_filled(self):
        scene = wall_ahead_scene(2.0)
        cam = facing_camera()
        oracle = DensityOracleParams(sigma=0.0, corruption_rate=0.0)
        img = render_density_image(scene, cam.extrinsic, cam, oracle, seed=0)
        # principal pixel looks straight at the wall 2 m ahead
        cy, cx = int(round(cam.cy)), int(round(cam.cx))
        assert img.depth[cy, cx] == pytest.approx(2.0, abs=1e-6)


def sequence_scenes() -> dict[str, Scene]:
    """A 6 m x 4 m room with a crate, seen from SEQUENCE_POSE, and its actors:
    - a walker that crosses in front of the east wall and a climber that
      rises out of every sensor's view;
    - a still poster made of the east wall's own triangles, so that every
      ray hitting it hits the wall equally near;
    - none."""
    walls = [
        WallSegment([0, 0], [6, 0], 0.2, "south"), WallSegment([6, 0], [6, 4], 0.2, "east"),
        WallSegment([6, 4], [0, 4], 0.2, "north"), WallSegment([0, 4], [0, 0], 0.2, "west"),
    ]
    plan = Floorplan2D(tuple(walls), 2.5, np.array([[0, 0], [6, 0], [6, 4], [0, 4]], float))
    building = extrude_floorplan(plan)
    crate = make_box_surface("crate", [1.0, 3.0, 0.4], [0.6, 0.5, 0.8], yaw_rad=0.3)
    walker = Actor(make_box_surface("walker", [4.5, 0.8, 0.9], [0.4, 0.4, 1.8]), (0.0, 1.0, 0.0))
    climber = Actor(make_box_surface("climber", [3.0, 3.0, 0.9], [0.4, 0.4, 1.8]), (0.0, 0.0, 4.0))
    poster = Actor(Surface("poster", building.get("east").triangles), (0.0, 0.0, 0.0))
    return {
        name: Scene(as_built=building, clutter=(crate,), actors=actors)
        for name, actors in [
            ("crossing_and_leaving", (walker, climber)),
            ("actor_face_in_wall", (poster,)),
            ("no_actors", ()),
        ]
    }


SEQUENCE_SCENES = sequence_scenes()
SEQUENCE_POSE = RigidTransform.from_rotvec([0.0, 0.0, 0.3], [2.0, 2.0, 0.45])
SEQUENCE_RIG = (LidarSpec(azimuth_step_deg=3.0), default_camera_rig(width=40, height=30))


def sequence(scene: Scene, n_scans: int, seed: int = 8):
    lidar, cameras = SEQUENCE_RIG
    return generate_trial_sequence(
        scene, SEQUENCE_POSE, n_scans, lidar, cameras, PrismSpec(), DensityOracleParams(),
        seed=seed, period_s=0.5,
    )


def triangle_counts(scene: Scene) -> tuple[int, int]:
    """(static, actor) triangles of `scene`."""
    static = sum(len(s.triangles) for s in (*scene.as_built.surfaces, *scene.clutter))
    return static, sum(len(actor.surface.triangles) for actor in scene.actors)


class TestStationaryCast:
    """A sequence casts the static scene on its first frame only, with the
    frames of sensors cast one at a time."""

    @pytest.mark.parametrize("name", list(SEQUENCE_SCENES))
    def test_sequence_equals_its_frames_cast_one_at_a_time(self, name):
        scene = SEQUENCE_SCENES[name]
        (lidar, cameras), oracle = SEQUENCE_RIG, DensityOracleParams()
        frames = sequence(scene, 4, seed=8)
        for i, frame in enumerate(frames):
            rng = np.random.default_rng(8 + i)
            scan = raycast_scan(scene, SEQUENCE_POSE, lidar, i * 0.5, rng)
            images = [
                render_density_image(
                    scene, compose(SEQUENCE_POSE, cam.extrinsic), cam, oracle, i * 0.5, rng
                )
                for cam in cameras
            ]
            assert frame.scan.points.tobytes() == scan.points.tobytes()
            np.testing.assert_array_equal(frame.scan.classes, scan.classes)
            for got, want in zip(frame.images, images, strict=True):
                assert got.values.tobytes() == want.values.tobytes()
                assert got.depth.tobytes() == want.depth.tobytes()
        actor_points = [int((f.scan.classes == "actor").sum()) for f in frames]
        if name == "crossing_and_leaving":  # both actors seen first, the walker alone last
            assert actor_points[0] > actor_points[-1] > 0
        else:
            assert actor_points == [0] * 4

    @pytest.mark.parametrize("name", list(SEQUENCE_SCENES))
    def test_cast_equals_all_pairs_over_every_triangle(self, name):
        """Each call of a sensor's cast returns what every ray against every
        triangle of the scene at its time gives, a tie going to the lowest
        index, so to the static triangle."""
        scene = SEQUENCE_SCENES[name]
        triangles = sensor_sim._SceneTriangles(scene)
        cast = sensor_sim._Cast(triangles)
        dirs = SEQUENCE_RIG[0].ray_directions() @ SEQUENCE_POSE.rotation.T
        for time_s in (0.0, 0.5, 1.0, 1.5):
            t, tri = cast(SEQUENCE_POSE.translation, dirs, time_s)
            every = np.concatenate([triangles.static, triangles.actors_at(time_s)])
            want_t, want_tri = all_pairs_raycast(SEQUENCE_POSE.translation, dirs, every)
            assert t.tobytes() == want_t.tobytes()
            np.testing.assert_array_equal(tri, want_tri)

    def test_actor_face_in_a_wall_ties_with_the_wall(self):
        """The poster's hits tie with the wall's, bit for bit, so the
        sequence must keep the wall's hit on a tie."""
        scene = SEQUENCE_SCENES["actor_face_in_wall"]
        triangles = sensor_sim._SceneTriangles(scene)
        dirs = SEQUENCE_RIG[0].ray_directions() @ SEQUENCE_POSE.rotation.T
        origin, groups = SEQUENCE_POSE.translation, sensor_sim._ray_groups(dirs)
        static_t, _ = _raycast(origin, dirs, triangles.static, groups)
        actor_t, _ = _raycast(origin, dirs, triangles.actors_at(0.0), groups)
        assert (np.isfinite(actor_t) & (actor_t == static_t)).sum() > 100

    def test_static_scene_cast_once_per_sensor(self, monkeypatch):
        """Per sensor, one grouping and one cast of the static triangles on
        the first frame, and one cast of the actors per frame over that
        grouping; a lone call makes one cast of each."""
        scene = SEQUENCE_SCENES["crossing_and_leaving"]
        n_static, n_actor = triangle_counts(scene)
        calls, cast, group = [], sensor_sim._raycast, sensor_sim._ray_groups

        def counted_cast(origin, dirs, triangles, groups):
            calls.append((len(triangles), len(groups.rays)))
            return cast(origin, dirs, triangles, groups)

        def counted_groups(dirs):
            calls.append(("grouped", len(dirs)))
            return group(dirs)

        monkeypatch.setattr(sensor_sim, "_raycast", counted_cast)
        monkeypatch.setattr(sensor_sim, "_ray_groups", counted_groups)
        sequence(scene, 4)
        lidar, (camera, *_) = SEQUENCE_RIG
        rays = [len(lidar.ray_directions())] + [40 * 30] * 3

        def first_cast(k):
            return [("grouped", k), (n_static, k), (n_actor, k)]

        assert calls == [c for k in rays for c in first_cast(k)] + [(n_actor, k) for k in rays] * 3
        calls.clear()
        raycast_scan(scene, SEQUENCE_POSE, lidar)
        render_density_image(scene, SEQUENCE_POSE, camera, DensityOracleParams())
        assert calls == first_cast(rays[0]) + first_cast(40 * 30)

    def test_actors_move_once_per_frame(self, monkeypatch):
        """All sensors of a frame share the actors moved to its time."""
        scene = SEQUENCE_SCENES["crossing_and_leaving"]
        times, at = [], Actor.at

        def counted_at(actor, time_s):
            times.append(time_s)
            return at(actor, time_s)

        monkeypatch.setattr(Actor, "at", counted_at)
        sequence(scene, 4)
        assert times == [i * 0.5 for i in range(4) for _ in scene.actors]


class TestCastRelease:
    @pytest.mark.parametrize("n_scans", [1, 3])
    def test_casts_are_freed_before_the_last_frame(self, monkeypatch, n_scans):
        """A sequence keeps its sensors' casts (and their static hits) from
        frame to frame, and drops them once its last frame is cast: none is
        alive while the caller holds that frame, the generator still open."""
        casts = []

        class TrackedCast(sensor_sim._Cast):
            def __init__(self, triangles):
                super().__init__(triangles)
                casts.append(weakref.ref(self))

        monkeypatch.setattr(sensor_sim, "_Cast", TrackedCast)
        lidar, cameras = SEQUENCE_RIG
        frames = iter_trial_sequence(
            SEQUENCE_SCENES["crossing_and_leaving"], SEQUENCE_POSE, n_scans, lidar, cameras,
            PrismSpec(), DensityOracleParams(), seed=8, period_s=0.5,
        )
        for _ in range(n_scans - 1):
            next(frames)
            assert len(casts) == 1 + len(cameras)
            assert all(ref() is not None for ref in casts)
        last = next(frames)
        assert last.index == n_scans - 1
        assert len(casts) == 1 + len(cameras)
        assert all(ref() is None for ref in casts)
        assert next(frames, None) is None


class TestTrialSequence:
    def _tiny_setup(self):
        scene = wall_ahead_scene(2.0)
        lidar = LidarSpec(
            ring_elevations_deg=(-5.0, 0.0, 5.0), azimuth_step_deg=15.0,
            max_range_m=30.0, range_noise_m=0.01,
        )
        cams = default_camera_rig(count=2, width=32, height=24)
        prism = PrismSpec(offset=np.array([0.1, 0, 0.4]))
        oracle = DensityOracleParams()
        pose = RigidTransform(np.eye(3), [0, 0, 0.2])
        return scene, pose, lidar, cams, prism, oracle

    def test_stationary_sequence(self):
        scene, pose, lidar, cams, prism, oracle = self._tiny_setup()
        frames = generate_trial_sequence(scene, pose, 300, lidar, cams, prism, oracle, seed=3)
        assert len(frames) == 300
        for f in frames[::50]:
            assert f.pose is pose
            assert len(f.images) == 2
            np.testing.assert_allclose(f.prism, prism_position(pose, prism))

    def test_single_noise_free_scan_matches_raycast(self):
        scene, pose, lidar, cams, prism, oracle = self._tiny_setup()
        quiet = LidarSpec(
            ring_elevations_deg=lidar.ring_elevations_deg,
            azimuth_step_deg=lidar.azimuth_step_deg,
            max_range_m=lidar.max_range_m,
            range_noise_m=0.0,
        )
        frames = generate_trial_sequence(scene, pose, 1, quiet, cams, prism, oracle, seed=11)
        direct = raycast_scan(scene, pose, quiet, time_s=0.0, seed=11)
        np.testing.assert_array_equal(frames[0].scan.points, direct.points)

    def test_bit_identical_under_seed(self):
        scene, pose, lidar, cams, prism, oracle = self._tiny_setup()
        a = generate_trial_sequence(scene, pose, 4, lidar, cams, prism, oracle, seed=7)
        b = generate_trial_sequence(scene, pose, 4, lidar, cams, prism, oracle, seed=7)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.scan.points, fb.scan.points)
            for ia, ib in zip(fa.images, fb.images):
                np.testing.assert_array_equal(ia.values, ib.values)

    def test_rejects_zero_scans(self):
        scene, pose, lidar, cams, prism, oracle = self._tiny_setup()
        with pytest.raises(ValueError):
            generate_trial_sequence(scene, pose, 0, lidar, cams, prism, oracle)


class TestFileFormats:
    def test_scan_csv_round_trip(self, tmp_path):
        scan = Scan(
            points=np.array([[1.25, -0.5, 0.125], [2.0, 3.0, -1.0]]),
            classes=np.array(["building", "clutter"]),
        )
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, path)
        back = read_scan_csv(path)
        np.testing.assert_allclose(back.points, scan.points, atol=1e-9)
        np.testing.assert_array_equal(back.classes, scan.classes)

    def test_scan_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z,class\n1,2,zebra,building\n")
        with pytest.raises(ValueError):
            read_scan_csv(path)

    @pytest.mark.parametrize(
        "scan, text",
        [
            (
                Scan(
                    points=[[1.25, -0.5, 0.125], [2.0, 3.0, -1.0]],
                    classes=["building", "actor"],
                ),
                "x,y,z,class\n"
                "1.250000000,-0.500000000,0.125000000,building\n"
                "2.000000000,3.000000000,-1.000000000,actor\n",
            ),
            (
                Scan(points=[[1.25, -0.5, 0.125], [2.0, 3.0, -1.0]], densities=[0.25, 0.75]),
                "x,y,z,d,w\n"
                "1.250000000,-0.500000000,0.125000000,0.250000000,nan\n"
                "2.000000000,3.000000000,-1.000000000,0.750000000,nan\n",
            ),
            (
                Scan(points=[[1.25, -0.5, 0.125], [2.0, 3.0, -1.0]], weights=[0.5, 1.0]),
                "x,y,z,d,w\n"
                "1.250000000,-0.500000000,0.125000000,nan,0.500000000\n"
                "2.000000000,3.000000000,-1.000000000,nan,1.000000000\n",
            ),
        ],
        ids=["classes", "fused", "weighted"],
    )
    def test_scan_csv_bytes(self, tmp_path, scan, text):
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, path)
        assert path.read_bytes() == text.encode()
        back = read_scan_csv(path)
        np.testing.assert_array_equal(back.points, scan.points)
        for name in ("densities", "weights", "classes"):
            np.testing.assert_array_equal(getattr(back, name), getattr(scan, name))

    @pytest.mark.parametrize(
        "scores",
        [{"densities": [0.5], "weights": [1.0]}, {"densities": [0.5]}, {"weights": [1.0]}],
        ids=["both", "densities", "weights"],
    )
    def test_scan_csv_refuses_classes_with_scores(self, tmp_path, scores):
        scan = Scan([[1.0, 2.0, 3.0]], classes=["building"], **scores)
        path = tmp_path / "scan.csv"
        with pytest.raises(ValueError, match="classes or densities/weights"):
            write_scan_csv(scan, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "text, where",
        [
            ("x,y,z,class\n1,2,3,building\n\n4,5,6\n", ":4: expected 4 fields, got 3"),
            ("x,y,z,class\n1,2,3,building,extra\n", ":2: expected 4 fields, got 5"),
            ("x,y,z,class\n1,2,3,building\n1,2,zebra,building\n", ":3: non-numeric field"),
            ("x,y,z,d,w\n1,2,3,0.5,1\n1,2,3,0.5\n", ":3: expected 5 fields, got 4"),
            ("x,y,z,d,w\n1,2,3,0.5,high\n", ":2: non-numeric field"),
            # coordinates are finite; a d or w column is finite or nan in every row
            ("x,y,z,class\n1,2,3,building\nnan,2,3,building\n", ":3: non-finite number"),
            ("x,y,z,class\n\n1,inf,3,building\n", ":3: non-finite number"),
            ("x,y,z,d,w\n1,2,3,0.5,nan\n1,2,-inf,0.5,nan\n", ":3: non-finite number"),
            ("x,y,z,d,w\n1,2,3,0.5,1\n1,2,3,nan,1\n", ":3: non-finite number"),
            ("x,y,z,d,w\n1,2,3,nan,1\n1,2,3,0.5,1\n", ":2: non-finite number"),
            ("x,y,z,d,w\n1,2,3,0.5,1\n1,2,3,0.5,nan\n", ":3: non-finite number"),
            ("x,y,z,d,w\n1,2,3,inf,nan\n", ":2: non-finite number"),
            # and every density and weight lies in [0, 1]
            ("x,y,z,d,w\n1,2,3,0.5,1\n1,2,3,7.0,1\n", ":3: density or weight outside [0, 1]"),
            ("x,y,z,d,w\n1,2,3,0.5,-0.5\n", ":2: density or weight outside [0, 1]"),
            ("x,y,z,d,w\n1,2,3,1.5,nan\n", ":2: density or weight outside [0, 1]"),
        ],
    )
    def test_scan_csv_errors_name_the_line(self, tmp_path, text, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_scan_csv(path)
        assert str(err.value) == f"{path}{where}"

    @pytest.mark.parametrize(
        "values", [[0.5, np.nan], [-0.1, 0.5], [0.5, 1.5], [np.inf, 0.5], [7.0, 0.5]]
    )
    @pytest.mark.parametrize("name", ["densities", "weights"])
    def test_scan_refuses_scores_outside_unit_interval(self, name, values):
        with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\]"):
            Scan([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], **{name: values})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scan_refuses_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            Scan([[1.0, 2.0, 3.0], [4.0, bad, 6.0]])

    @pytest.mark.parametrize("header", ["x,y,z,class", "x,y,z,d,w"])
    def test_header_only_scan_csv_is_empty(self, tmp_path, header):
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_scan_csv(path)
        assert back.points.shape == (0, 3)
        assert back.densities is None and back.weights is None
        assert (back.classes is not None) == (header == "x,y,z,class")

    def test_pgm_round_trip_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        img = DensityImage(values=rng.random((24, 32)))
        path = tmp_path / "density.pgm"
        write_density_pgm(img, path)
        back = read_density_pgm(path)
        assert back.values.shape == (24, 32)
        assert np.max(np.abs(back.values - img.values)) <= 0.5 / 65535 + 1e-12
        assert back.depth is None

    def test_pgm_rejects_eight_bit(self, tmp_path):
        path = tmp_path / "eight.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03")
        with pytest.raises(ValueError):
            read_density_pgm(path)

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (0, 0)])
    def test_pgm_refuses_an_empty_image(self, tmp_path, width, height):
        path = tmp_path / "empty.pgm"
        path.write_bytes(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        with pytest.raises(ValueError) as error:
            read_density_pgm(path)
        assert str(error.value) == f"{path}: density image is empty ({width} x {height} pixels)"


class TestSceneInvariants:
    def test_id_collision_rejected(self):
        wall = make_box_surface("wall", center=[2, 0, 0], size=[0.2, 4, 3])
        dup = make_box_surface("wall", center=[0, 2, 0], size=[4, 0.2, 3])
        with pytest.raises(ValueError):
            Scene(as_built=BuildingModel((wall,)), clutter=(dup,))

    def test_rig_covers_azimuths(self):
        cams = default_camera_rig(count=3)
        yaw_axes = [cam.extrinsic.rotation @ np.array([0, 0, 1.0]) for cam in cams]
        # optical axes stay horizontal and spread evenly
        for axis in yaw_axes:
            assert axis[2] == pytest.approx(0.0, abs=1e-12)
        dots = [abs(float(yaw_axes[i] @ yaw_axes[(i + 1) % 3])) for i in range(3)]
        for d in dots:
            assert d == pytest.approx(0.5, abs=1e-9)
