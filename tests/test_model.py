import dataclasses
import hashlib
import itertools
import json
from pathlib import Path
import tracemalloc

import numpy as np
import pytest

from planloc.experiment import load_floorplan, load_reference_set
from planloc.geometry import RigidTransform
from planloc.model import (
    COPLANAR_M,
    EPS_PARALLEL,
    BuildingModel,
    Deviation,
    EmptyPlanError,
    Floorplan2D,
    InsufficientConstraintsError,
    MapCloud,
    ReferenceSet,
    Surface,
    UnknownSurfaceIdError,
    WallSegment,
    apply_deviation,
    extrude_floorplan,
    make_box_surface,
    sample_model,
    triangulate_polygon,
    validate_reference_set,
)

from conftest import normals_at, square_room_plan, yawed_room_plan


def single_wall_plan():
    return Floorplan2D(
        walls=(WallSegment([0, 0], [4, 0], 0.2),),
        wall_height=2.5,
        floor_outline=np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float),
    )


def edge_use_counts(surface: Surface):
    """Count how often each undirected edge appears across the triangles."""
    counts = {}
    for tri in surface.triangles:
        for i in range(3):
            a, b = tuple(tri[i].round(9)), tuple(tri[(i + 1) % 3].round(9))
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestExtrusion:
    def test_single_segment(self):
        model = extrude_floorplan(single_wall_plan())
        assert model.surface_ids == ("wall_0", "floor")
        wall = model.get("wall_0")
        assert len(wall.triangles) == 12  # box: 6 faces, 2 triangles each
        assert wall.area == pytest.approx(2 * (4 * 2.5 + 0.2 * 2.5 + 4 * 0.2), abs=1e-9)

    def test_l_shaped_walls_perpendicular(self):
        plan = Floorplan2D(
            walls=(
                WallSegment([0, 0], [4, 0], 0.2),
                WallSegment([4, 0], [4, 3], 0.2),
            ),
            wall_height=2.5,
            floor_outline=np.array([[0, 0], [4, 0], [4, 3], [0, 3]], dtype=float),
        )
        model = extrude_floorplan(plan)
        assert len(model.surfaces) == 3
        n0 = model.get("wall_0").dominant_normal()
        n1 = model.get("wall_1").dominant_normal()
        assert abs(float(n0 @ n1)) == pytest.approx(0.0, abs=1e-9)

    def test_empty_plan_rejected(self):
        plan = single_wall_plan()
        empty = Floorplan2D(walls=(), wall_height=2.5, floor_outline=plan.floor_outline)
        with pytest.raises(EmptyPlanError):
            extrude_floorplan(empty)

    def test_wall_boxes_watertight(self):
        model = extrude_floorplan(square_room_plan())
        for sid in ("wall_a", "wall_b", "wall_c", "wall_d"):
            counts = edge_use_counts(model.get(sid))
            assert all(c == 2 for c in counts.values()), f"{sid} has boundary edges"

    def test_box_normals_point_outward(self):
        box = make_box_surface("box", center=[1, 2, 3], size=[0.4, 0.6, 0.8], yaw_rad=0.3)
        centroids = box.triangles.mean(axis=1)
        outward = np.einsum("ij,ij->i", centroids - np.array([1, 2, 3.0]), box.normals)
        assert np.all(outward > 0)

    def test_floor_at_z0_with_up_normals(self):
        model = extrude_floorplan(square_room_plan())
        floor = model.get("floor")
        assert np.max(np.abs(floor.triangles[:, :, 2])) == 0.0
        np.testing.assert_allclose(floor.normals, [[0, 0, 1]] * len(floor.normals), atol=1e-12)

    def test_custom_wall_ids(self):
        model = extrude_floorplan(square_room_plan())
        assert set(model.surface_ids) == {"wall_a", "wall_b", "wall_c", "wall_d", "floor"}


class TestTriangulation:
    def test_l_shaped_outline_area(self):
        outline = np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], dtype=float)
        tris = triangulate_polygon(outline)
        # oracle: shoelace area of the outline
        x, y = outline[:, 0], outline[:, 1]
        shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        def area2d(t):
            u, v = t[1] - t[0], t[2] - t[0]
            return 0.5 * abs(u[0] * v[1] - u[1] * v[0])

        tri_area = sum(area2d(t) for t in tris)
        assert tri_area == pytest.approx(shoelace, abs=1e-9)
        assert len(tris) == len(outline) - 2

    def test_orientation_independent(self):
        outline = np.array([[0, 0], [3, 0], [3, 3], [0, 3]], dtype=float)
        a = triangulate_polygon(outline)
        b = triangulate_polygon(outline[::-1])
        assert len(a) == len(b) == 2


class TestReferenceValidation:
    def test_corner_set_valid(self, room_model):
        refs = ReferenceSet(("floor", "wall_a", "wall_b"))
        assert validate_reference_set(room_model, refs) is refs

    def test_two_surfaces_insufficient(self, room_model):
        with pytest.raises(InsufficientConstraintsError):
            validate_reference_set(room_model, ReferenceSet(("floor", "wall_a")))

    def test_parallel_pair_insufficient(self, room_model):
        # wall_a and wall_c face each other: only two independent directions
        with pytest.raises(InsufficientConstraintsError):
            validate_reference_set(room_model, ReferenceSet(("floor", "wall_a", "wall_c")))

    def test_unknown_id(self, room_model):
        with pytest.raises(UnknownSurfaceIdError):
            validate_reference_set(room_model, ReferenceSet(("floor", "wall_a", "nope")))

    def test_monotone_under_additions(self, room_model):
        base = ("floor", "wall_a", "wall_b")
        for extra in ((), ("wall_c",), ("wall_c", "wall_d")):
            refs = ReferenceSet(base + extra)
            assert validate_reference_set(room_model, refs) is refs

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSet(())

    def test_agrees_with_brute_force(self):
        """Accepted iff some three members' dominant normals are pairwise
        non-parallel, on random sets with pairs either side of the
        EPS_PARALLEL edge."""
        edge = np.arccos(1.0 - EPS_PARALLEL)
        outcomes = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            dirs = []
            for _ in range(rng.integers(3, 7)):
                n = rng.normal(size=3)
                if dirs and rng.random() < 0.6:  # near the edge from an earlier member
                    base = dirs[rng.integers(len(dirs))]
                    axis = np.cross(base, rng.normal(size=3))
                    angle = edge * (1.0 + rng.choice([-1e-9, 0.0, 1e-9, -1e-3, 1e-3]))
                    n = RigidTransform.from_rotvec(angle * axis / np.linalg.norm(axis)).rotation @ base
                    n *= rng.choice([-1.0, 1.0])
                n = n / np.linalg.norm(n)
                dirs.append(n)
            surfaces = []
            for i, n in enumerate(dirs):
                u = np.cross(n, [1.0, 0.0, 0.0] if abs(n[0]) < 0.9 else [0.0, 1.0, 0.0])
                u /= np.linalg.norm(u)
                surfaces.append(Surface(f"s{i}", [[[0.0, 0.0, 0.0], u, np.cross(n, u)]]))
            model = BuildingModel(tuple(surfaces))
            refs = ReferenceSet(model.surface_ids)
            normals = [s.dominant_normal() for s in surfaces]
            expected = any(
                abs(float(normals[i] @ normals[j])) < 1.0 - EPS_PARALLEL
                and abs(float(normals[i] @ normals[k])) < 1.0 - EPS_PARALLEL
                and abs(float(normals[j] @ normals[k])) < 1.0 - EPS_PARALLEL
                for i, j, k in itertools.permutations(range(len(normals)), 3)
            )
            try:
                accepted = validate_reference_set(model, refs) is refs
            except InsufficientConstraintsError:
                accepted = False
            assert accepted == expected, seed
            outcomes.add(accepted)
        assert outcomes == {True, False}


class TestSampling:
    def test_unit_triangle_surface_count(self):
        # 1 m^2 right triangle sampled at 100 points/m^2
        tri = np.array([[[0, 0, 0], [np.sqrt(2), 0, 0], [0, np.sqrt(2), 0]]])
        surface = Surface("tri", tri)
        assert surface.area == pytest.approx(1.0, abs=1e-12)
        cloud = sample_model(BuildingModel((surface,)), 100.0, seed=0)
        assert 70 <= len(cloud) <= 130
        np.testing.assert_allclose(normals_at(cloud, slice(None)), [[0, 0, 1]] * len(cloud), atol=1e-12)

    def test_total_count_tracks_area(self, room_model):
        density = 200.0
        cloud = sample_model(room_model, density, seed=1)
        expected = sum(s.area for s in room_model.surfaces) * density
        assert abs(len(cloud) - expected) / expected < 0.02

    def test_zero_density_rejected(self, room_model):
        with pytest.raises(ValueError):
            sample_model(room_model, 0.0)

    @pytest.mark.parametrize("density", [np.nan, np.inf])
    def test_non_finite_density_rejected(self, room_model, density):
        with pytest.raises(ValueError, match="finite and > 0"):
            sample_model(room_model, density)

    @pytest.mark.parametrize(
        "density, seed, n, digest",
        [
            (50.0, 42, 8480, "9d7a93e915cb0bdaa8609c8cb76780e878045716474912ab1127270b9adc3ecd"),
            (777.7, 9, 131899, "7cd14ee8e2a149842e7099cbd3f309300379318c9f5a5dac1e67da6f15c9d29c"),
        ],
    )
    def test_sampled_bytes_pinned(self, room_model, density, seed, n, digest):
        # Digests of the map as first recorded, over the points and each
        # point's normal and surface index: a change to the sampler's
        # arithmetic or draw order shows here before it moves any output.
        cloud = sample_model(room_model, density, seed=seed)
        h = hashlib.sha256()
        for arr in (cloud.points, normals_at(cloud, slice(None)), surface_of(cloud)):
            h.update(arr.tobytes())
        assert (len(cloud), h.hexdigest()) == (n, digest)

    def test_peak_memory_near_the_returned_arrays(self, room_model):
        # Sampling writes into the map's own arrays; a per-point copy of
        # them (a gather of whole triangles, a concatenation) shows as a
        # peak of 2-3x the returned bytes.
        tracemalloc.start()
        try:
            cloud = sample_model(room_model, 1500.0, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cloud) >= 200_000
        assert peak < 1.5 * (cloud.points.nbytes + cloud.triangle.nbytes)

    def test_map_holds_28_bytes_per_point_and_a_normal_per_triangle(self, room_model):
        """Float64 points and an int32 triangle index per point; the normals
        live once per plan triangle, in the model's table."""
        cloud = sample_model(room_model, 50.0, seed=42)
        arrays = [v for v in vars(cloud).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 28 * len(cloud)
        assert cloud.triangle.dtype == np.int32
        n_triangles = sum(len(s.triangles) for s in room_model.surfaces)
        assert cloud.model.triangle_normals.shape == (n_triangles, 3)
        assert cloud.model.triangle_surface.shape == (n_triangles,)

    def test_triangle_tables_are_the_surfaces_own(self, room_model):
        normals = room_model.triangle_normals
        np.testing.assert_array_equal(normals, np.concatenate([s.normals for s in room_model.surfaces]))
        owners = [room_model.surface_ids[i] for i in room_model.triangle_surface]
        assert owners == [s.id for s in room_model.surfaces for _ in s.triangles]
        for table in (normals, room_model.triangle_surface):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_deterministic_under_seed(self, room_model):
        a = sample_model(room_model, 50.0, seed=42)
        b = sample_model(room_model, 50.0, seed=42)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.triangle, b.triangle)

    def test_points_lie_on_surfaces(self, room_model):
        cloud = sample_model(room_model, 30.0, seed=2)
        floor_mask = surface_of(cloud) == room_model.surface_ids.index("floor")
        assert np.max(np.abs(cloud.points[floor_mask, 2])) < 1e-12

    @pytest.mark.parametrize("name", ["room", "site", "yawed"])
    def test_every_point_lies_on_its_triangle_plane(self, site_model, name):
        """The invariant registration's plane residuals rest on (MapCloud)."""
        model = plan_models(site_model)[name]
        cloud = sample_model(model, 20.0 if name == "site" else 200.0, seed=5)
        corners = np.concatenate([s.triangles for s in model.surfaces])[cloud.triangle]
        normals = model.triangle_normals[cloud.triangle]
        off = np.einsum("ij,ij->i", cloud.points - corners[:, 0], normals)
        assert len(cloud) > 1000 and np.abs(off).max() < 1e-9

    def test_subset_by_surface(self, room_model):
        cloud = sample_model(room_model, 50.0, seed=3)
        sub = cloud.subset(["floor"])
        assert 0 < len(sub) < len(cloud)
        assert all(room_model.surface_ids[i] == "floor" for i in surface_of(sub))
        with pytest.raises(UnknownSurfaceIdError):
            cloud.subset(["missing"])


@pytest.fixture(scope="module")
def site_model():
    """The plan of the benchmark's `site_sim` workload at seed 101: 4 x 4
    rooms on jittered wall lines."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        plan, _, _ = workloads.site_documents(np.random.default_rng(101), workloads.FULL)
    walls = tuple(WallSegment(w["start"], w["end"], w["thickness"], w["id"]) for w in plan["walls"])
    return extrude_floorplan(Floorplan2D(walls, plan["wall_height"], plan["floor"]))


def plan_models(site_model) -> dict:
    return {
        "room": extrude_floorplan(square_room_plan()),
        "site": site_model,
        "yawed": extrude_floorplan(yawed_room_plan()),
    }


class TestPlaneTable:
    def test_room_planes(self, room_model):
        planes = room_model.planes
        assert planes.normals.shape == (14, 3) and planes.offsets.shape == (14,)
        assert planes.of_triangle.shape == (50,) and planes.of_triangle.dtype == np.int32
        # the floor and the bottom faces of the four wall boxes: one plane
        bottoms = room_model.triangle_normals[:, 2] < -0.5
        floor = room_model.triangle_surface == room_model.surface_ids.index("floor")
        assert len(set(planes.of_triangle[bottoms | floor])) == 1

    @pytest.mark.parametrize("name", ["room", "site", "yawed"])
    def test_triangles_lie_in_their_plane_and_planes_are_distinct(self, site_model, name):
        model = plan_models(site_model)[name]
        planes = model.planes
        corners = np.concatenate([s.triangles for s in model.surfaces])
        normals, offsets = planes.normals[planes.of_triangle], planes.offsets[planes.of_triangle]
        off = np.einsum("tkj,tj->tk", corners, normals) + offsets[:, None]
        assert np.abs(off).max() <= COPLANAR_M
        np.testing.assert_allclose(np.linalg.norm(planes.normals, axis=1), 1.0, atol=1e-15)
        # a triangle lies in no plane but its own
        for p in range(len(planes.offsets)):
            others = corners[planes.of_triangle != p]
            dist = np.abs(others @ planes.normals[p] + planes.offsets[p]).max(axis=1)
            assert (dist > COPLANAR_M).all()
        assert {"room": 14, "site": 26, "yawed": 14}[name] == len(planes.offsets)

    def test_coplanar_faces_group_and_faces_a_millimetre_apart_do_not(self):
        # three boxes on the floor, two 1 m tall and one 1.001 m tall
        model = BuildingModel((
            make_box_surface("a", [0.0, 0.0, 0.5], [1.0, 1.0, 1.0]),
            make_box_surface("b", [3.0, 0.0, 0.5], [1.0, 1.0, 1.0], yaw_rad=0.3),
            make_box_surface("c", [6.0, 0.0, 0.5005], [1.0, 1.0, 1.001]),
        ))
        planes = model.planes
        up = model.triangle_normals[:, 2] > 0.5
        down = model.triangle_normals[:, 2] < -0.5
        top_a, top_b, top_c = planes.of_triangle[up].reshape(3, 2)
        assert top_a[0] == top_a[1] == top_b[0] == top_b[1] != top_c[0] == top_c[1]
        assert len(set(planes.of_triangle[down])) == 1  # all three bottoms at z = 0
        # a's six faces, b's four yawed sides, and c's faces at x = 5.5 and
        # 6.5 and its top; c's faces at y = +-0.5 lie in a's planes
        assert len(planes.offsets) == 6 + 4 + 3

    def test_plane_of_a_flipped_face_negates_the_residual(self, room_model):
        planes = room_model.planes
        floor = room_model.surface_ids.index("floor")
        t = int(np.flatnonzero(room_model.triangle_surface == floor)[0])
        n = planes.normals[planes.of_triangle[t]]
        assert abs(n @ room_model.triangle_normals[t]) == 1.0

    def test_table_is_read_only(self, room_model):
        planes = room_model.planes
        for table in (planes.normals, planes.offsets, planes.of_triangle):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


def surface_of(cloud: MapCloud) -> np.ndarray:
    """Index into `cloud.model.surface_ids` of each point's surface."""
    return cloud.model.triangle_surface[cloud.triangle]


ONE_TRIANGLE = BuildingModel((Surface("s", [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]),))


def unit_cloud(**changes) -> dict:
    """Arguments of a valid four-point MapCloud on a one-triangle model, with
    `changes` applied."""
    args = {
        "points": np.arange(12.0).reshape(4, 3),
        "triangle": np.zeros(4, dtype=np.int32),
        "model": ONE_TRIANGLE,
    }
    args.update(changes)
    return args


class TestMapCloud:
    def test_non_finite_point_rejected(self):
        args = unit_cloud()
        args["points"][2, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            MapCloud(**args)

    @pytest.mark.parametrize(
        "changes",
        [
            {"points": np.zeros((2, 2)), "triangle": np.zeros(2, dtype=np.int32)},
            {"points": np.zeros(4)},
            {"triangle": np.zeros((4, 1), dtype=np.int32)},
            {"triangle": np.zeros(4)},
        ],
        ids=["two_columns", "flat_points", "two_dim_triangle", "float_triangle"],
    )
    def test_arrays_not_shaped_n_by_3_rejected(self, changes):
        with pytest.raises(ValueError, match="shaped"):
            MapCloud(**unit_cloud(**changes))

    @pytest.mark.parametrize("bad", [5, 1, -1, 2**32])
    def test_triangle_out_of_range_rejected(self, bad):
        args = unit_cloud(triangle=np.array([0, bad, 0, 0], dtype=np.int64))
        with pytest.raises(ValueError, match="index its model's triangles"):
            MapCloud(**args)

    def test_subset_keeps_rows_in_order(self, room_model):
        cloud = sample_model(room_model, 20.0, seed=4)
        wanted = ["wall_c", "floor"]
        sub = cloud.subset(wanted)
        rows = np.flatnonzero([room_model.surface_ids[i] in wanted for i in surface_of(cloud)])
        np.testing.assert_array_equal(sub.points, cloud.points[rows])
        np.testing.assert_array_equal(sub.triangle, cloud.triangle[rows])
        assert sub.model is cloud.model

    def test_subset_goes_through_the_checked_constructor(self, room_model, monkeypatch):
        cloud = sample_model(room_model, 20.0, seed=4)
        calls, check = [], MapCloud.__post_init__
        monkeypatch.setattr(MapCloud, "__post_init__", lambda c: calls.append(c) or check(c))
        sub = cloud.subset(["floor"])
        assert len(calls) == 1 and calls[0] is sub

    def test_arrays_are_read_only_views(self, room_model):
        """A MapIndex's kd-tree shares `points`, so no write may reach it;
        the cloud holds views of its arrays, not copies."""
        args = unit_cloud()
        cloud = MapCloud(**args)
        assert np.shares_memory(cloud.points, args["points"])
        sub = sample_model(room_model, 20.0, seed=4).subset(["floor"])
        for arrays in (cloud, sub):
            for name in ("points", "triangle"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(arrays, name)[0] = 0


class TestDeviation:
    def test_identity_offset_bitwise_equal(self, room_model):
        dev = [Deviation(("wall_a",), RigidTransform.identity())]
        out = apply_deviation(room_model, dev)
        np.testing.assert_array_equal(
            out.get("wall_a").triangles, room_model.get("wall_a").triangles
        )

    def test_translation_moves_only_listed_group(self, room_model):
        shift = RigidTransform(np.eye(3), [0.3, 0, 0])
        out = apply_deviation(room_model, [Deviation(("wall_a",), shift)])
        moved = out.get("wall_a").triangles - room_model.get("wall_a").triangles
        np.testing.assert_allclose(moved[..., 0], 0.3, atol=1e-12)
        np.testing.assert_allclose(moved[..., 1:], 0.0, atol=1e-12)
        np.testing.assert_array_equal(
            out.get("wall_b").triangles, room_model.get("wall_b").triangles
        )

    def test_unknown_id_rejected(self, room_model):
        with pytest.raises(UnknownSurfaceIdError):
            apply_deviation(
                room_model, [Deviation(("ghost",), RigidTransform.identity())]
            )

    def test_areas_preserved(self, room_model):
        dev = [
            Deviation(
                ("wall_a", "wall_b"),
                RigidTransform.from_rotvec([0, 0, 0.4], [1, -2, 0.5]),
            )
        ]
        out = apply_deviation(room_model, dev)
        for sid in room_model.surface_ids:
            assert out.get(sid).area == pytest.approx(room_model.get(sid).area, abs=1e-9)


class TestJsonInputs:
    def test_floorplan_reader(self, tmp_path):
        path = tmp_path / "plan.json"
        walls = [
            {"start": [0, 0], "end": [6, 0], "thickness": 0.2, "id": "wall_a"},
            {"start": [0, 0], "end": [0, 6], "thickness": 0.2},
        ]
        floor = [[0, 0], [6, 0], [6, 6], [0, 6]]
        path.write_text(json.dumps({"walls": walls, "wall_height": 2.5, "floor": floor}))
        plan = load_floorplan(path)
        assert [w.id for w in plan.walls] == ["wall_a", None]
        np.testing.assert_array_equal(plan.walls[1].end, [0.0, 6.0])
        assert plan.walls[0].thickness == 0.2 and plan.wall_height == 2.5
        np.testing.assert_array_equal(plan.floor_outline, floor)

    def test_reference_set_reader(self, tmp_path):
        path = tmp_path / "refs.json"
        path.write_text(json.dumps(["floor", "wall_a"]))
        assert load_reference_set(path).surface_ids == ("floor", "wall_a")

    def test_reference_set_rejects_non_list(self, tmp_path):
        path = tmp_path / "refs.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            load_reference_set(path)


class TestSurfaceInvariants:
    def test_degenerate_triangle_rejected(self):
        tri = np.array([[[0, 0, 0], [1, 0, 0], [2, 0, 0]]], dtype=float)
        with pytest.raises(ValueError):
            Surface("bad", tri)

    def test_normals_and_areas_are_the_cross_product_values(self):
        rng = np.random.default_rng(7)
        tris = rng.normal(size=(50, 3, 3)) * rng.uniform(0.01, 100.0, size=(50, 1, 1))
        surface = Surface("soup", tris)
        cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        norms = np.linalg.norm(cross, axis=1)
        np.testing.assert_array_equal(surface.triangles, tris)
        np.testing.assert_array_equal(surface.normals, cross / norms[:, None])
        np.testing.assert_array_equal(surface.areas, 0.5 * norms)

    def test_derived_arrays_are_read_only(self):
        tri = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)
        surface = Surface("tri", tri)
        tri[0, 1, 0] = 5.0  # the surface holds its own copy
        assert surface.area == 0.5
        for name in ("triangles", "normals", "areas"):
            with pytest.raises(ValueError):
                getattr(surface, name)[0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(surface, name, getattr(surface, name))

    def test_normals_are_not_an_argument(self):
        tri = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)
        with pytest.raises(TypeError):
            Surface("tri", tri, np.array([[0.0, 0.0, 1.0]]))

    def test_duplicate_ids_rejected(self):
        from planloc.model import BuildingModel

        tri = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)
        s = Surface("dup", tri)
        with pytest.raises(ValueError):
            BuildingModel((s, s))
