import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import src_env
from test_registration import CountingTree
from planloc import cli, experiment, registration, sensor_sim
from planloc.experiment import (
    MAPS_FILE,
    SCHEMA,
    ConfigError,
    METHOD_MATRIX,
    assemble_scene,
    fuse_scan,
    load_config,
    run_execution,
    run_matrix,
)
from planloc.fusion import FusionConfig, fuse_densities
from planloc.geometry import RigidTransform, compose
from planloc.metrics import TrialRecord
from planloc.registration import (
    ICP_METHODS, SCAN_METHODS, MapIndex, conclude, localize, result_record,
)
from planloc.sensor_sim import (
    DensityImage,
    Scan,
    generate_trial_sequence,
    iter_trial_sequence,
    prism_position,
    raycast_scan,
    read_scan_csv,
    render_density_image,
    write_density_pgm,
    write_scan_csv,
)


def write_room_inputs(tmp_path: Path, side=5.0):
    (tmp_path / "plan.json").write_text(
        json.dumps(
            {
                "walls": [
                    {"start": [0, 0], "end": [side, 0], "thickness": 0.2, "id": "wall_a"},
                    {"start": [0, 0], "end": [0, side], "thickness": 0.2, "id": "wall_b"},
                    {"start": [0, side], "end": [side, side], "thickness": 0.2, "id": "wall_c"},
                    {"start": [side, 0], "end": [side, side], "thickness": 0.2, "id": "wall_d"},
                ],
                "wall_height": 2.5,
                "floor": [[0, 0], [side, 0], [side, side], [0, side]],
            }
        )
    )
    (tmp_path / "refs.json").write_text(json.dumps(["floor", "wall_a", "wall_b"]))


def tiny_config(tmp_path: Path, **extra) -> Path:
    write_room_inputs(tmp_path)
    doc = {
        "schema": 1,
        "floorplan": "plan.json",
        "references": "refs.json",
        "deviation": [],
        "lidar": {"rings": 8, "azimuth_step_deg": 4.0, "range_noise_m": 0.01},
        "cameras": {"count": 3, "width": 64, "height": 48},
        "prism": {"offset": [0.1, 0.0, 0.4]},
        "map_density_per_m2": 150,
        "robot_pose": {"translation": [2.5, 2.5, 0.45]},
        "n_scans": 3,
        "n_executions": 2,
        "seed": 5,
        "out_dir": "out",
    }
    doc.update(extra)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(*args):
    """`planloc *args` run in-process by `cli.main`, with its exit code (2
    where argparse exits) and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as e:
            code = e.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_entry_point(*args):
    """`python -m planloc *args` in a subprocess, which covers the entry point."""
    return subprocess.run(
        [sys.executable, "-m", "planloc", *args], capture_output=True, text=True, env=src_env()
    )


def count_map_builds(monkeypatch) -> dict:
    """Counts of the `sample_model` calls that scene assembly makes and of
    the `MapIndex` builds, from now on."""
    counts = {"sample_model": 0, "MapIndex": 0}
    sample, index_init = experiment.sample_model, registration.MapIndex.__init__

    def counted_sample(*args, **kwargs):
        counts["sample_model"] += 1
        return sample(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["MapIndex"] += 1
        index_init(self, *args, **kwargs)

    monkeypatch.setattr(experiment, "sample_model", counted_sample)
    monkeypatch.setattr(registration.MapIndex, "__init__", counted_init)
    return counts


def obj_vertices(path: Path) -> dict[str, np.ndarray]:
    """The `v` vertices of each `g` group of an OBJ mesh, by group name."""
    groups: dict[str, list] = {}
    for line in path.read_text().splitlines():
        kind, *fields = line.split()
        if kind == "g":
            verts = groups.setdefault(fields[0], [])
        elif kind == "v":
            verts.append([float(x) for x in fields])
    return {name: np.array(verts) for name, verts in groups.items()}


class TestConfig:
    def test_loads_with_defaults(self, tmp_path):
        path = tiny_config(tmp_path)
        doc = json.loads(path.read_text())
        for section in ("lidar", "cameras"):
            del doc[section]
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.n_executions == 2
        assert cfg.delta == 0.5 and cfg.delta_prime == 0.1
        default_sel = registration.SelectiveConfig()
        assert cfg.selective.tau_translation_m == default_sel.tau_translation_m
        assert cfg.selective.tau_rotation_rad == default_sel.tau_rotation_rad
        assert cfg.selective.full_icp == registration.IcpConfig()
        assert cfg.selective.selective_icp == registration.IcpConfig()
        assert cfg.oracle == sensor_sim.DensityOracleParams()
        assert cfg.fusion == FusionConfig()
        assert cfg.lidar == sensor_sim.LidarSpec()
        rig = sensor_sim.default_camera_rig()
        assert len(cfg.cameras) == len(rig) == 3
        for cam, ref in zip(cfg.cameras, rig):
            for f in dataclasses.fields(ref):
                if f.name == "extrinsic":
                    for part in ("rotation", "translation"):
                        np.testing.assert_array_equal(
                            getattr(cam.extrinsic, part), getattr(ref.extrinsic, part)
                        )
                else:
                    assert getattr(cam, f.name) == getattr(ref, f.name), f.name

    def test_empty_corrupt_surfaces_means_every_surface(self, tmp_path):
        path = tiny_config(tmp_path, density_oracle={"corrupt_surfaces": []})
        assert load_config(path).oracle.corrupt_surface_ids is None

    def test_overrides(self, tmp_path):
        cfg = load_config(
            tiny_config(tmp_path), {"seed": 99, "delta": 0.7, "tau_trans": 0.4}
        )
        assert cfg.seed == 99 and cfg.delta == 0.7
        assert cfg.selective.tau_translation_m == 0.4

    def test_selective_stage_icp_overrides(self, tmp_path):
        path = tiny_config(
            tmp_path,
            selective={"tau_trans_m": 0.3, "icp": {"max_correspondence_m": 0.25}},
        )
        cfg = load_config(path)
        assert cfg.selective.full_icp.max_correspondence_m == 0.5
        assert cfg.selective.selective_icp.max_correspondence_m == 0.25

    @pytest.mark.parametrize(
        "extra, where",
        [
            ({"icp": {"max_iterations": 5.5}}, "icp: max_iterations"),
            (
                {"selective": {"icp": {"min_correspondences": 10.0}}},
                "selective.icp: min_correspondences",
            ),
            ({"cameras": {"width": 32.5}}, "cameras: width"),
            ({"lidar": {"rings": 8.0}}, "lidar: rings"),
            ({"n_scans": 2.7}, "n_scans"),
            ({"n_scans": "2"}, "n_scans"),
            ({"n_executions": True}, "n_executions"),
            ({"seed": 1.5}, "seed"),
            ({"schema": 1.0}, "schema"),
        ],
        ids=[
            "icp_float", "selective_icp_float", "cameras_float", "lidar_float",
            "top_level_float", "top_level_string", "top_level_bool", "seed_float",
            "schema_float",
        ],
    )
    def test_integer_setting_must_be_an_integer(self, tmp_path, capsys, extra, where):
        path = tiny_config(tmp_path, **extra)
        assert cli.main(["run-matrix", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {where}: expected an integer\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"map_density_per_m2": True}, "map_density_per_m2: expected a number"),
            ({"map_density_per_m2": "400"}, "map_density_per_m2: expected a number"),
            ({"scan_period_s": "0.2"}, "scan_period_s: expected a number"),
            ({"icp": {"huber_scale_m": "0.05"}}, "icp: huber_scale_m: expected a number"),
            ({"fusion": {"delta": True}}, "fusion: delta: expected a number"),
            (
                {"lidar": {"elevation_min_deg": "-15"}},
                "lidar: elevation_min_deg: expected a number",
            ),
            ({"map_density_per_m2": 0}, "map_density_per_m2: expected a finite number > 0"),
            ({"map_density_per_m2": -5.0}, "map_density_per_m2: expected a finite number > 0"),
            ({"scan_period_s": float("nan")}, "scan_period_s: expected a number"),
            ({"icp": {"huber_scale_m": float("inf")}}, "icp: huber_scale_m: expected a number"),
        ],
        ids=[
            "density_bool", "density_string", "period_string", "icp_string", "delta_bool",
            "elevation_string", "density_zero", "density_negative", "period_nan",
            "icp_infinity",
        ],
    )
    def test_float_setting_must_be_a_number(self, tmp_path, capsys, extra, message):
        path = tiny_config(tmp_path, **extra)
        assert cli.main(["run-matrix", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["config", "override"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, source):
        path = tiny_config(tmp_path, seed=-1 if source == "config" else 5)
        flags = ["--seed", "-1"] if source == "override" else []
        assert cli.main(["run-matrix", "--config", str(path), *flags]) == 2
        assert capsys.readouterr().err == f"error: {path}: seed: expected an integer >= 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["config", "override"])
    def test_negative_delta_prime_exits_two(self, tmp_path, capsys, source):
        path = tiny_config(tmp_path, fusion={"delta_prime": -1 if source == "config" else 0.1})
        flags = ["--delta-prime", "-1"] if source == "override" else []
        assert cli.main(["run-matrix", "--config", str(path), *flags]) == 2
        message = "delta_prime: expected a number >= 0"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("delta", [-0.5, 1.5])
    @pytest.mark.parametrize("source", ["config", "override"])
    def test_delta_outside_unit_interval_exits_two(self, tmp_path, capsys, source, delta):
        path = tiny_config(tmp_path, fusion={"delta": delta if source == "config" else 0.5})
        flags = ["--delta", str(delta)] if source == "override" else []
        assert cli.main(["run-matrix", "--config", str(path), *flags]) == 2
        message = "delta: expected a number in [0, 1]"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("hfov_deg", [0, 180])
    def test_degenerate_field_of_view_exits_two(self, tmp_path, capsys, hfov_deg):
        path = tiny_config(tmp_path, cameras={"hfov_deg": hfov_deg})
        assert cli.main(["run-matrix", "--config", str(path)]) == 2
        message = "hfov_deg must lie strictly between 0 and 180"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["width", "height"])
    def test_camera_size_below_one_pixel_exits_two_naming_it(self, tmp_path, capsys, name):
        path = tiny_config(tmp_path, cameras={name: 0})
        assert cli.main(["run-matrix", "--config", str(path)]) == 2
        message = f"camera {name} must be >= 1 pixel, got 0"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "section, name, value",
        [("icp", "max_iterations", 0), ("selective", "huber_scale_m", -1)],
    )
    def test_non_positive_icp_value_exits_two_naming_it(
        self, tmp_path, capsys, section, name, value
    ):
        doc = {name: value} if section == "icp" else {"icp": {name: value}}
        path = tiny_config(tmp_path, **{section: doc})
        assert cli.main(["run-matrix", "--config", str(path)]) == 2
        message = f"ICP configuration value {name} must be positive"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("count", [0, -1])
    def test_camera_count_below_one_exits_two(self, tmp_path, capsys, count):
        path = tiny_config(tmp_path, cameras={"count": count})
        assert cli.main(["run-matrix", "--config", str(path)]) == 2
        message = "cameras: count: expected an integer >= 1"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_float_setting_accepts_an_integer(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path, scan_period_s=1, fusion={"delta": 1}))
        assert cfg.scan_period_s == 1.0 and cfg.delta == 1.0
        assert cfg.map_density_per_m2 == 150.0

    @pytest.mark.parametrize(
        "velocity",
        [[0.2, 0.0], "ab", [0.2, 0.0, 0.0, 0.0], [0.2, 0.0, True], [0.2, "0", 0.0],
         [0.2, 0.0, float("nan")], {"x": 0.2}],
        ids=["two_numbers", "string", "four_numbers", "bool", "string_entry", "nan", "object"],
    )
    def test_actor_velocity_must_be_three_numbers(self, tmp_path, capsys, velocity):
        actor = {"id": "worker", "center": [1.0, 1.0, 0.9], "size": [0.4, 0.4, 1.8]}
        path = tiny_config(tmp_path, actors=[{**actor, "velocity": velocity}])
        assert cli.main(["build-scene", "--config", str(path)]) == 2
        message = "actors[0]: velocity: expected 3 numbers"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_actor_velocity_defaults_to_zero(self, tmp_path):
        actor = {"id": "worker", "center": [1.0, 1.0, 0.9], "size": [0.4, 0.4, 1.8]}
        moving = {**actor, "id": "cart", "velocity": [0, 1, 0.5]}
        cfg = load_config(tiny_config(tmp_path, actors=[actor, moving]))
        assert [a.velocity for a in cfg.scene.actors] == [(0.0, 0.0, 0.0), (0, 1, 0.5)]

    @pytest.mark.parametrize(
        "section, build, special, fixed",
        [
            (
                "lidar", sensor_sim.LidarSpec,
                {"rings", "elevation_min_deg", "elevation_max_deg"}, {"ring_elevations_deg"},
            ),
            ("cameras", sensor_sim.default_camera_rig, set(), set()),
            ("prism", sensor_sim.PrismSpec, set(), set()),
            ("density_oracle", sensor_sim.DensityOracleParams, set(), set()),
            ("fusion", FusionConfig, {"delta", "delta_prime"}, set()),
            ("icp", registration.IcpConfig, set(), set()),
            ("selective", registration.SelectiveConfig, {"icp"}, {"full_icp", "selective_icp"}),
        ],
    )
    def test_section_keys_are_builder_parameters(self, section, build, special, fixed):
        """Each settings section's schema keys, renamed and bar its special
        keys, are the parameters its builder takes, bar those set for it."""
        keys = set(SCHEMA["config"][section]) - special
        params = set(inspect.signature(build).parameters) - fixed
        assert {experiment._PARAM.get(k, k) for k in keys} == params

    def test_readme_schema_lists_the_schema_keys(self):
        """README's config example names every key of the config and
        floorplan schemas, and no other."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("### Config schema (version 1)")[1].split("```")[1]

        def keys(kind) -> set:
            if isinstance(kind, list):
                return keys(kind[0])
            if isinstance(kind, dict):
                return set(kind).union(*map(keys, kind.values()))
            return set()

        assert set(re.findall(r'"(\w+)":', block)) == keys(SCHEMA["config"]) | keys(
            SCHEMA["floorplan"]
        )

    def test_pose_file_takes_either_rotation_layout(self, tmp_path):
        rot = RigidTransform.from_rotvec([0.0, 0.0, 0.3]).rotation
        poses = []
        for r in (rot.ravel().tolist(), rot.tolist()):
            path = tmp_path / "pose.json"
            path.write_text(json.dumps({"r": r, "t": [1.0, 2.0, 0.5]}))
            poses.append(experiment.load_pose(path))
        for pose in poses:
            np.testing.assert_array_equal(pose.rotation, rot)
            np.testing.assert_array_equal(pose.translation, [1.0, 2.0, 0.5])

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"schema": 2}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_field_names_it(self, tmp_path):
        write_room_inputs(tmp_path)
        path = tmp_path / "exp.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "floorplan": "plan.json",
                    "robot_pose": {"translation": [1, 1, 0.5]},
                }
            )
        )
        with pytest.raises(ConfigError, match="references"):
            load_config(path)


class TestBuildScene:
    def test_writes_three_meshes(self, tmp_path):
        path = tiny_config(
            tmp_path,
            deviation=[{"surfaces": ["wall_c"], "translation": [0, -0.3, 0]}],
        )
        proc = run_entry_point("build-scene", "--config", str(path))
        assert proc.returncode == 0, proc.stderr
        planned, built, refs = (
            obj_vertices(tmp_path / "out" / f"{name}.obj")
            for name in ("as_planned", "as_built", "references")
        )
        assert set(refs) == {"floor", "wall_a", "wall_b"}
        plan = load_config(path).plan
        assert list(built) == list(planned) == list(plan.surface_ids)
        for sid, verts in planned.items():
            np.testing.assert_allclose(verts, plan.get(sid).triangles.reshape(-1, 3), atol=1e-6)
        # each triangle is a face over its own three consecutive vertices
        lines = (tmp_path / "out" / "as_planned.obj").read_text().splitlines()
        n_verts = sum(len(v) for v in planned.values())
        faces = [f"f {i} {i + 1} {i + 2}" for i in range(1, n_verts, 3)]
        assert [line for line in lines if line.startswith("f ")] == faces
        shift = built["wall_c"] - planned["wall_c"]
        np.testing.assert_allclose(shift[:, 1], -0.3, atol=1e-6)
        np.testing.assert_allclose(shift[:, [0, 2]], 0.0, atol=1e-6)
        assert "wall_a" in proc.stdout  # inventory listing

    def test_missing_floorplan_reports_path(self, tmp_path):
        path = tiny_config(tmp_path, floorplan="missing_plan.json")
        proc = run_cli("build-scene", "--config", str(path))
        assert proc.returncode == 2
        assert "missing_plan.json" in proc.stderr

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (
                "exp.json",
                lambda d: {**d, "clutter": [{"id": "board", "center": [1.0, 1.0, 0.5]}]},
                "missing required field 'size'",
            ),
            (
                "exp.json",
                lambda d: {**d, "actors": [{"center": [1.0, 1.0, 0.9], "size": [0.4, 0.4, 1.8]}]},
                "missing required field 'id'",
            ),
            (
                "plan.json",
                lambda d: {k: v for k, v in d.items() if k != "walls"},
                "missing required field 'walls'",
            ),
            (
                "plan.json",
                lambda d: {**d, "walls": [
                    {k: v for k, v in w.items() if k != "thickness"} for w in d["walls"]
                ]},
                "missing required field 'thickness'",
            ),
            ("refs.json", lambda d: {"ids": d}, "expected a list of strings"),
            ("refs.json", lambda d: d + ["wall_z"], "unknown surface id 'wall_z'"),
            ("exp.json", lambda d: [], "expected an object"),
            (
                "exp.json",
                lambda d: {**d, "lidar": {**d["lidar"], "ring": 4}},
                "lidar: unknown field 'ring'",
            ),
            (
                "exp.json",
                lambda d: {**d, "cameras": {**d["cameras"], "hfov": 90}},
                "cameras: unknown field 'hfov'",
            ),
            (
                "exp.json",
                lambda d: {**d, "density_oracle": {"mu_bg": 0.8, "sigm": 0.1}},
                "density_oracle: unknown field 'sigm'",
            ),
            (
                "exp.json",
                lambda d: {**d, "fusion": {"rules": "max"}},
                "fusion: unknown field 'rules'",
            ),
            (
                "exp.json",
                lambda d: {**d, "icp": {"max_iteration": 5, "huber_scale": 0.5}},
                "icp: unknown field 'max_iteration'",
            ),
            (
                "exp.json",
                lambda d: {**d, "selective": {"tau_trans": 0.01}},
                "selective: unknown field 'tau_trans'",
            ),
            (
                "exp.json",
                lambda d: {**d, "selective": {"icp": {"max_correspondence": 0.3}}},
                "selective.icp: unknown field 'max_correspondence'",
            ),
            (
                "exp.json",
                lambda d: {**d, "icp": {"kernel": "squared"}},
                "icp: unknown field 'kernel'",
            ),
            (
                "exp.json",
                lambda d: {**d, "selective": {"icp": {"kernel": "huber"}}},
                "selective.icp: unknown field 'kernel'",
            ),
            (
                "exp.json",
                lambda d: {**d, "density_oracle": {"mu_background": 0.1}},
                "density_oracle: unknown field 'mu_background'",
            ),
            ("exp.json", lambda d: {**d, "icp": 5}, "icp: expected an object"),
            ("exp.json", lambda d: {**d, "lidar": [1]}, "lidar: expected an object"),
            (
                "exp.json",
                lambda d: {**d, "selective": {"icp": []}},
                "selective.icp: expected an object",
            ),
            (
                "exp.json",
                lambda d: {**d, "density_oracle": {"corrupt_surfaces": "wall_a"}},
                "density_oracle: corrupt_surfaces: expected a list of strings",
            ),
            (
                "exp.json",
                lambda d: {**d, "density_oracle": {"corrupt_surfaces": ["wall_a", "wall_zz"]}},
                "unknown surface id 'wall_zz'",
            ),
            (
                "exp.json",
                lambda d: {**d, "robot_pose": {"translaton": [3.0, 2.6, 0.45]}},
                "robot_pose: unknown field 'translaton'",
            ),
            (
                "exp.json",
                lambda d: {**d, "deviation": [
                    {"surfaces": ["wall_c"], "translation": [0, -0.3, 0], "yaw": 5}
                ]},
                "deviation[0]: unknown field 'yaw'",
            ),
            ("exp.json", lambda d: {**d, "n_scan": 2}, "unknown field 'n_scan'"),
            (
                "exp.json",
                lambda d: {**d, "clutter": [
                    {"id": "box", "center": [1.0, 1.0, 0.5], "size": [0.5, 0.5, 1.0], "yaw": 45}
                ]},
                "clutter[0]: unknown field 'yaw'",
            ),
            (
                "exp.json",
                lambda d: {**d, "actors": [{
                    "id": "worker", "center": [1.0, 1.0, 0.9], "size": [0.4, 0.4, 1.8],
                    "velocity": [0.2, 0.0, 0.0], "yaw": 45,
                }]},
                "actors[0]: unknown field 'yaw'",
            ),
            (
                "exp.json",
                lambda d: {**d, "prism": {"offest": [0.1, 0.0, 0.4]}},
                "prism: unknown field 'offest'",
            ),
            (
                "exp.json",
                lambda d: {**d, "robot_pose": {"translation": [2.5, 2.5, 0.45], "yaw_deg": "45"}},
                "robot_pose: yaw_deg: expected a number",
            ),
            (
                "exp.json",
                lambda d: {**d, "robot_pose": {"translation": [2.5, 2.5]}},
                "robot_pose: translation: expected 3 numbers",
            ),
            (
                "exp.json",
                lambda d: {**d, "initial_pose": {"quaternion": ["1", "0", "0", "0"]}},
                "initial_pose: quaternion: expected 4 numbers",
            ),
            (
                "exp.json",
                lambda d: {**d, "clutter": [
                    {"id": "box", "center": [1.0, 1.0, 0.5], "size": [0.5, 0.5, True]}
                ]},
                "clutter[0]: size: expected 3 numbers",
            ),
            (
                "exp.json",
                lambda d: {**d, "clutter": [
                    {"id": "box", "center": "1 1 0.5", "size": [0.5, 0.5, 1.0]}
                ]},
                "clutter[0]: center: expected 3 numbers",
            ),
            (
                "exp.json",
                lambda d: {**d, "clutter": [
                    {"id": 7, "center": [1.0, 1.0, 0.5], "size": [0.5, 0.5, 1.0]}
                ]},
                "clutter[0]: id: expected a string",
            ),
            (
                "exp.json",
                lambda d: {**d, "prism": {"offset": "0.1 0 0.4"}},
                "prism: offset: expected 3 numbers",
            ),
            (
                "exp.json",
                lambda d: {**d, "cameras": {**d["cameras"], "mount": "0 0 0.25"}},
                "cameras: mount: expected 3 numbers",
            ),
            (
                "exp.json",
                lambda d: {**d, "deviation": [{"surfaces": "wall_c", "translation": [0, -0.3, 0]}]},
                "deviation[0]: surfaces: expected a list of strings",
            ),
            (
                "plan.json",
                lambda d: {**d, "walls": [{**d["walls"][0], "thickness": "0.2"}, *d["walls"][1:]]},
                "walls[0]: thickness: expected a number",
            ),
            ("plan.json", lambda d: {**d, "wall_height": True}, "wall_height: expected a number"),
            (
                "plan.json",
                lambda d: {**d, "walls": [*d["walls"][:3], {**d["walls"][3], "thicknes": 0.2}]},
                "walls[3]: unknown field 'thicknes'",
            ),
        ],
        ids=[
            "clutter_without_size", "actor_without_id", "floorplan_without_walls",
            "wall_without_thickness", "references_not_a_list", "unknown_reference",
            "config_is_a_list", "lidar_misspelt_key", "cameras_misspelt_key",
            "density_oracle_misspelt_key", "fusion_misspelt_key", "icp_misspelt_key",
            "selective_misspelt_key", "selective_icp_misspelt_key", "icp_kernel",
            "selective_icp_kernel", "field_name_alias",
            "icp_not_an_object", "lidar_not_an_object", "selective_icp_not_an_object",
            "corrupt_surfaces_a_string", "unknown_corrupt_surface", "robot_pose_misspelt_key",
            "deviation_misspelt_key", "top_level_misspelt_key", "clutter_misspelt_key",
            "actor_misspelt_key", "prism_misspelt_key", "yaw_deg_a_string",
            "translation_two_numbers", "quaternion_strings", "clutter_size_bool",
            "clutter_center_a_string", "clutter_id_an_integer", "prism_offset_a_string",
            "cameras_mount_a_string", "deviation_surfaces_a_string", "wall_thickness_a_string",
            "wall_height_bool", "wall_misspelt_key",
        ],
    )
    def test_malformed_input_exits_two_naming_file(self, tmp_path, name, edit, message):
        cfg_path = tiny_config(tmp_path)
        path = tmp_path / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        proc = run_cli("build-scene", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {path}: {message}\n"

    def test_unused_override_flag_exits_two(self, tmp_path):
        proc = run_cli("build-scene", "--config", str(tiny_config(tmp_path)), "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --seed 1" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_samples_no_map_and_builds_no_index(self, tmp_path, monkeypatch, capsys):
        path = tiny_config(tmp_path)
        counts = count_map_builds(monkeypatch)
        assert cli.main(["build-scene", "--config", str(path)]) == 0
        assert "wall_a" in capsys.readouterr().out
        assert counts == {"sample_model": 0, "MapIndex": 0}
        assemble_scene(load_config(path))  # the counters do see scene assembly
        assert counts == {"sample_model": 1, "MapIndex": 2}


class TestRunMatrix:
    def test_csv_has_six_method_rows(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        csv_path, jsonl_path = run_matrix(cfg)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 7
        methods = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert methods == list(METHOD_MATRIX)
        entries = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert len(entries) == 2 * 6 * 3  # executions x methods x scans
        assert {"localized", "failed"} >= {e["outcome"] for e in entries}

    def test_deterministic_across_runs(self, tmp_path):
        path = tiny_config(tmp_path)
        proc1 = run_entry_point("run-matrix", "--config", str(path), "--out", str(tmp_path / "a"))
        proc2 = run_entry_point("run-matrix", "--config", str(path), "--out", str(tmp_path / "b"))
        assert proc1.returncode == 0, proc1.stderr
        assert proc2.returncode == 0, proc2.stderr
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        assert a == b

    def test_readme_trial_log_lists_the_failure_reasons(self):
        """README's trial-log section names every failure reason, and no
        other."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("* **Trial log**")[1].split("`localize-once` prints")[0]
        listed = re.findall(r"`(\w+)`", "".join(re.findall(r"^  \* (.*?):", section, re.M)))
        assert sorted(listed) == sorted(r.value for r in registration.FailureReason)

    def test_seed_changes_report(self, tmp_path):
        path = tiny_config(tmp_path)
        cfg_a = load_config(path, {"out_dir": str(tmp_path / "a")})
        cfg_b = load_config(path, {"seed": 123, "out_dir": str(tmp_path / "b")})
        csv_a, _ = run_matrix(cfg_a)
        csv_b, _ = run_matrix(cfg_b)
        assert csv_a.read_bytes() != csv_b.read_bytes()


@pytest.fixture
def fast_thread_switching():
    """Switch threads every 10 µs instead of every 5 ms, so the worker and
    the calling thread interleave far more often than they do in a run."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestSharedStage:
    """full × X is taken from the full-map stage of the selective × X run."""

    @staticmethod
    def _count_calls(monkeypatch, names) -> dict:
        counts = dict.fromkeys(names, 0)
        lock = threading.Lock()  # calls arrive from run_execution's worker thread too
        for name in names:
            original = getattr(registration, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                with lock:
                    counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(registration, name, counted)
        return counts

    @pytest.mark.parametrize(
        "extra", [{}, {"initial_pose": {"translation": [50.0, 50.0, 0.45]}}],
        ids=["localized", "far_start"],
    )
    def test_full_records_equal_direct_localization(self, tmp_path, extra):
        cfg = load_config(tiny_config(tmp_path, n_scans=1, **extra))
        bundle = assemble_scene(cfg)
        records = run_execution(bundle, cfg, 0)
        frame = generate_trial_sequence(
            bundle.scene, cfg.robot_pose, 1, cfg.lidar, cfg.cameras, cfg.prism,
            cfg.oracle, seed=cfg.seed, period_s=cfg.scan_period_s,
        )[0]
        fused = fuse_scan(frame.scan, frame.images, cfg)
        for scan_method in SCAN_METHODS:
            scan = frame.scan if scan_method == "full" else fused
            direct = localize(
                scan, bundle.full_map, bundle.ref_map, cfg.initial_pose,
                ("full", scan_method), cfg.delta, cfg.delta_prime, cfg.selective,
            )
            (shared,) = (rec.result for rec in records[("full", scan_method)])
            assert shared.localized == direct.localized == (not extra)
            if direct.localized:
                for part in ("rotation", "translation"):
                    got = getattr(shared.transform, part).tobytes()
                    assert got == getattr(direct.transform, part).tobytes()
            assert shared.failure_reason == direct.failure_reason
            ((stage, direct_stage),) = zip(shared.stages, direct.stages, strict=True)
            for field in ("stop", "iterations", "residual_rms_m", "correspondences"):
                assert getattr(stage, field) == getattr(direct_stage, field)

    def test_matrix_runs_six_icp_and_two_weightings_per_frame(
        self, tmp_path, monkeypatch, fast_thread_switching
    ):
        cfg = load_config(tiny_config(tmp_path, n_scans=2))
        bundle = assemble_scene(cfg)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)  # count from two threads
        counts = self._count_calls(
            monkeypatch, ("point_to_plane_icp", "weights_binary", "weights_linear")
        )
        records = run_execution(bundle, cfg, 0, methods=METHOD_MATRIX)
        assert all(r.result.localized for recs in records.values() for r in recs)
        assert counts == {"point_to_plane_icp": 12, "weights_binary": 2, "weights_linear": 2}

    def test_full_method_alone_runs_one_icp_per_frame(self, tmp_path, monkeypatch):
        cfg = load_config(tiny_config(tmp_path, n_scans=2))
        bundle = assemble_scene(cfg)
        counts = self._count_calls(monkeypatch, ("point_to_plane_icp",))
        records = run_execution(bundle, cfg, 0, methods=[("full", "filtered")])
        assert list(records) == [("full", "filtered")]
        assert len(records[("full", "filtered")]) == 2
        assert counts == {"point_to_plane_icp": 2}


class TestOneFramePath:
    @pytest.mark.parametrize("method", METHOD_MATRIX, ids="-".join)
    def test_localize_once_equals_run_execution(self, tmp_path, method):
        """localize-once localizes a frame's scan and images as run-matrix
        does, also where the rig leaves points that no camera sees."""
        cfg = load_config(tiny_config(tmp_path, n_scans=1))
        bundle = assemble_scene(cfg)
        frame = generate_trial_sequence(
            bundle.scene, cfg.robot_pose, 1, cfg.lidar, cfg.cameras, cfg.prism,
            cfg.oracle, seed=cfg.seed, period_s=cfg.scan_period_s,
        )[0]
        assert len(fuse_scan(frame.scan, frame.images, cfg)) < len(frame.scan)  # uncovered
        (want,) = (rec.result for rec in run_execution(bundle, cfg, 0)[method])
        got = experiment.localize_once(cfg, frame.scan, frame.images, cfg.initial_pose, method)
        assert got.failure_reason == want.failure_reason
        assert result_record(got, *method) == result_record(want, *method)
        assert got.localized and want.localized
        for part in ("rotation", "translation"):
            got_bytes = getattr(got.transform, part).tobytes()
            assert got_bytes == getattr(want.transform, part).tobytes()


class TestOneFrameAtATime:
    def test_simulation_and_localization_interleave(self, tmp_path, monkeypatch):
        cfg = load_config(tiny_config(tmp_path, n_scans=2))
        bundle = assemble_scene(cfg)
        events = []
        raycast, loc = sensor_sim.raycast_scan, experiment.localize

        def traced_raycast(*args, **kwargs):
            events.append("raycast_scan")
            return raycast(*args, **kwargs)

        def traced_localize(*args, **kwargs):
            events.append("localize")
            return loc(*args, **kwargs)

        monkeypatch.setattr(sensor_sim, "raycast_scan", traced_raycast)
        monkeypatch.setattr(experiment, "localize", traced_localize)
        run_execution(bundle, cfg, 0)
        # one localization per scan variant, right after its frame is simulated
        assert events == ["raycast_scan", "localize", "localize", "localize"] * 2


def sequential_execution(bundle, cfg, execution, methods=METHOD_MATRIX):
    """run_execution's per-frame loop with every localization on the calling
    thread, one after another: the reference its records must equal."""
    frames = iter_trial_sequence(
        bundle.scene, cfg.robot_pose, cfg.n_scans, cfg.lidar, cfg.cameras, cfg.prism,
        cfg.oracle, seed=cfg.seed + execution * cfg.n_scans, period_s=cfg.scan_period_s,
    )
    needs_fusion = any(m[1] != "full" for m in methods)
    records = {m: [] for m in methods}
    for frame in frames:
        rig = [(img, cam, cam.extrinsic) for img, cam in zip(frame.images, cfg.cameras)]
        fused_scan = fuse_densities(frame.scan, rig, cfg.fusion)[0] if needs_fusion else None
        results = {}
        for method in sorted(methods, key=lambda m: m[0] != "selective"):  # selective first
            if method not in results:
                scan = frame.scan if method[1] == "full" else fused_scan
                res = results[method] = localize(
                    scan, bundle.full_map, bundle.ref_map, cfg.initial_pose, method,
                    cfg.delta, cfg.delta_prime, cfg.selective,
                )
                results[("full", method[1])] = conclude(res.stages[:1], cfg.selective)
        for method in methods:
            result = results[method]
            est = prism_position(result.transform, cfg.prism) if result.localized else None
            records[method].append(
                TrialRecord(frame.index, result, frame.pose, frame.prism, est)
            )
    return records


def assert_records_equal(got, want):
    assert list(got) == list(want)
    for method in want:
        assert len(got[method]) == len(want[method])
        for a, b in zip(got[method], want[method]):
            assert a.scan_index == b.scan_index
            assert a.result.failure_reason == b.result.failure_reason
            assert result_record(a.result, *method) == result_record(b.result, *method)
            if b.result.localized:
                for part in ("rotation", "translation"):
                    got_bytes = getattr(a.result.transform, part).tobytes()
                    assert got_bytes == getattr(b.result.transform, part).tobytes()
                assert a.estimated_prism.tobytes() == b.estimated_prism.tobytes()


def thread_log(monkeypatch, fail_on=None) -> list:
    """Log the thread of every localize call; with `fail_on` ("worker" or
    "main") a call on that thread raises LookupError instead."""
    calls = []
    original = experiment.localize

    def logged(*args, **kwargs):
        on_main = threading.current_thread() is threading.main_thread()
        calls.append("main" if on_main else "worker")
        if calls[-1] == fail_on:
            raise LookupError(f"localization failed on the {fail_on} thread")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "localize", logged)
    return calls


SELECTIVE_ONLY = [("selective", scan) for scan in SCAN_METHODS]


class TestConcurrentLocalization:
    """run_execution runs a frame's first localization on one worker thread."""

    @pytest.mark.parametrize(
        "methods", [METHOD_MATRIX, SELECTIVE_ONLY, [("full", "filtered")]],
        ids=["matrix", "selective_only", "full_filtered"],
    )
    @pytest.mark.parametrize(
        "extra", [{}, {"initial_pose": {"translation": [50.0, 50.0, 0.45]}}],
        ids=["localized", "far_start"],
    )
    def test_records_equal_sequential_loop(
        self, tmp_path, monkeypatch, fast_thread_switching, methods, extra
    ):
        cfg = load_config(tiny_config(tmp_path, n_scans=2, **extra))
        bundle = assemble_scene(cfg)
        want = sequential_execution(bundle, cfg, 1, methods)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        calls = thread_log(monkeypatch)
        before = threading.active_count()
        got = run_execution(bundle, cfg, 1, methods)
        assert threading.active_count() == before  # the worker was joined
        assert_records_equal(got, want)
        one_run = len(methods) == 1
        assert calls.count("worker") == (0 if one_run else 2)  # one per frame
        assert calls.count("main") == (2 if one_run else 4)
        assert all(r.result.localized == (not extra) for recs in got.values() for r in recs)

    @pytest.mark.parametrize("fail_on", ["worker", "main"])
    def test_error_surfaces_from_run_matrix_and_joins_worker(
        self, tmp_path, monkeypatch, fail_on
    ):
        cfg = load_config(tiny_config(tmp_path, n_scans=2))
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
        calls = thread_log(monkeypatch, fail_on=fail_on)
        before = threading.active_count()
        with pytest.raises(LookupError, match=f"on the {fail_on} thread"):
            run_matrix(cfg)
        assert threading.active_count() == before
        assert calls.count(fail_on) == 1  # the first frame's call raised

    def test_single_cpu_starts_no_thread(self, tmp_path, monkeypatch):
        cfg = load_config(tiny_config(tmp_path, n_scans=2))
        bundle = assemble_scene(cfg)
        want = sequential_execution(bundle, cfg, 0)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)

        def no_start(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        calls = thread_log(monkeypatch)
        got = run_execution(bundle, cfg, 0)
        assert_records_equal(got, want)
        assert calls == ["main"] * 6


class TestLocalizeOnce:
    def _scan_file(self, tmp_path, cfg) -> Path:
        bundle = assemble_scene(cfg)
        scan = raycast_scan(bundle.scene, cfg.robot_pose, cfg.lidar, seed=0)
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, path)
        return path

    def test_clean_scan_exit_zero(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        scan_path = self._scan_file(tmp_path, cfg)
        proc = run_entry_point(
            "localize-once",
            "--config", str(cfg_path),
            "--scan", str(scan_path),
            "--icp", "full",
            "--scan-variant", "full",
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["outcome"] == "localized"
        assert record["residual_m"] < 0.05

    def test_garbage_scan_exit_two(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,scan\n1,2\n")
        proc = run_cli("localize-once", "--config", str(cfg_path), "--scan", str(bad))
        assert proc.returncode == 2
        assert not (tmp_path / "out").exists()

    def test_failed_localization_exit_one(self, tmp_path):
        cfg_path = tiny_config(
            tmp_path, initial_pose={"translation": [50.0, 50.0, 0.45]}
        )
        cfg = load_config(cfg_path)
        scan_path = self._scan_file(tmp_path, cfg)
        proc = run_cli(
            "localize-once",
            "--config", str(cfg_path),
            "--scan", str(scan_path),
            "--icp", "full",
            "--scan-variant", "full",
        )
        assert proc.returncode == 1
        record = json.loads(proc.stdout)
        assert record["outcome"] == "failed"

    def _image_args(self, tmp_path, cfg, bundle, count) -> list[str]:
        """`--image` arguments for `count` density PGMs of the rig's cameras,
        repeating the rig's cameras when `count` exceeds the rig."""
        args = []
        for i in range(count):
            cam = cfg.cameras[i % len(cfg.cameras)]
            img = render_density_image(
                bundle.scene, compose(cfg.robot_pose, cam.extrinsic), cam,
                cfg.oracle, seed=10 + i,
            )
            p = tmp_path / f"cam{i}.pgm"
            write_density_pgm(img, p)
            args += ["--image", str(p)]
        return args

    def test_filtered_with_density_images(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        bundle = assemble_scene(cfg)
        scan = raycast_scan(bundle.scene, cfg.robot_pose, cfg.lidar, seed=1)
        scan_path = tmp_path / "scan.csv"
        write_scan_csv(scan, scan_path)
        image_args = self._image_args(tmp_path, cfg, bundle, len(cfg.cameras))
        proc = run_cli(
            "localize-once",
            "--config", str(cfg_path),
            "--scan", str(scan_path),
            *image_args,
            "--icp", "full",
            "--scan-variant", "filtered",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outcome"] == "localized"

    @pytest.mark.parametrize("count", [1, 4])
    def test_image_count_must_match_rig(self, tmp_path, count):
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        scan_path = self._scan_file(tmp_path, cfg)
        image_args = self._image_args(tmp_path, cfg, assemble_scene(cfg), count)
        proc = run_cli(
            "localize-once", "--config", str(cfg_path), "--scan", str(scan_path), *image_args
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: got {count} density images for a 3-camera rig")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", [2, 4])
    def test_image_count_is_checked_before_any_map_is_built(self, tmp_path, monkeypatch, count):
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        scan_path = self._scan_file(tmp_path, cfg)
        image_args = self._image_args(tmp_path, cfg, assemble_scene(cfg), count)

        def no_map(*args, **kwargs):
            raise AssertionError("a map was sampled")

        monkeypatch.setattr(experiment, "sample_model", no_map)
        proc = run_cli(
            "localize-once", "--config", str(cfg_path), "--scan", str(scan_path), *image_args
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: got {count} density images for a 3-camera rig\n"

    @pytest.mark.parametrize("variant", ["full", "weighted"])  # filtered: the test above
    @pytest.mark.parametrize("count", [1, 4])
    def test_image_count_is_checked_for_every_variant(self, tmp_path, variant, count):
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        scan_path = self._scan_file(tmp_path, cfg)
        image_args = self._image_args(tmp_path, cfg, assemble_scene(cfg), count)
        proc = run_cli(
            "localize-once", "--config", str(cfg_path), "--scan", str(scan_path), *image_args,
            "--scan-variant", variant,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: got {count} density images for a 3-camera rig\n"

    @pytest.mark.parametrize("variant", SCAN_METHODS)
    def test_mis_sized_image_exits_two_naming_file_and_sizes(self, tmp_path, variant):
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        scan_path = self._scan_file(tmp_path, cfg)
        image_args = self._image_args(tmp_path, cfg, assemble_scene(cfg), len(cfg.cameras))
        small = tmp_path / "small.pgm"
        write_density_pgm(DensityImage(np.full((24, 32), 0.5)), small)
        image_args[3] = str(small)  # the second camera's image
        proc = run_cli(
            "localize-once", "--config", str(cfg_path), "--scan", str(scan_path), *image_args,
            "--scan-variant", variant,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        sizes = "density image is 32 x 24 pixels, its camera 64 x 48"
        assert proc.stderr == f"error: {small}: {sizes}\n"

    def test_full_variant_ignores_images(self, tmp_path):
        """`full` localizes every point of the scan, so density images, which
        leave the points no camera sees out of the fused scan, change nothing."""
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        scan_path = self._scan_file(tmp_path, cfg)
        image_args = self._image_args(tmp_path, cfg, assemble_scene(cfg), len(cfg.cameras))
        argv = ["localize-once", "--config", str(cfg_path), "--scan", str(scan_path)]
        for icp in ("full", "selective"):
            method = ["--icp", icp, "--scan-variant", "full"]
            with_images, without = run_cli(*argv, *image_args, *method), run_cli(*argv, *method)
            assert with_images.returncode == without.returncode == 0, with_images.stderr
            assert with_images.stdout == without.stdout

    def test_empty_image_exits_two_naming_file(self, tmp_path, capsys):
        cfg_path = tiny_config(tmp_path)
        scan_path = self._scan_file(tmp_path, load_config(cfg_path))
        image = tmp_path / "empty.pgm"
        image.write_bytes(b"P5\n0 4\n65535\n")
        argv = ["localize-once", "--config", str(cfg_path), "--scan", str(scan_path)]
        assert cli.main([*argv, "--image", str(image)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {image}: density image is empty (0 x 4 pixels)\n"

    def test_fused_scan_localizes_without_images(self, tmp_path):
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        frame = generate_trial_sequence(
            assemble_scene(cfg).scene, cfg.robot_pose, 1, cfg.lidar, cfg.cameras,
            cfg.prism, cfg.oracle, seed=3,
        )[0]
        fused = fuse_scan(frame.scan, frame.images, cfg)
        scan_path = tmp_path / "fused.csv"
        write_scan_csv(fused, scan_path)
        assert scan_path.read_text().startswith("x,y,z,d,w\n")
        proc = run_cli(
            "localize-once",
            "--config", str(cfg_path),
            "--scan", str(scan_path),
            "--icp", "full",
            "--scan-variant", "weighted",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outcome"] == "localized"

    @pytest.mark.parametrize("variant", SCAN_METHODS)
    def test_weight_column_changes_nothing(self, tmp_path, variant):
        """`full` localizes with unit weights, and `filtered` and `weighted`
        derive their weights from `d`: a scan file's `w` is never used."""
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        frame = generate_trial_sequence(
            assemble_scene(cfg).scene, cfg.robot_pose, 1, cfg.lidar, cfg.cameras,
            cfg.prism, cfg.oracle, seed=3,
        )[0]
        fused = fuse_scan(frame.scan, frame.images, cfg)
        scan_path = tmp_path / "fused.csv"
        outputs = set()
        for weights in (None, np.zeros(len(fused)), np.ones(len(fused))):
            write_scan_csv(Scan(fused.points, densities=fused.densities, weights=weights), scan_path)
            proc = run_cli(
                "localize-once", "--config", str(cfg_path), "--scan", str(scan_path),
                "--scan-variant", variant,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    @pytest.mark.parametrize(
        "pose, message",
        [
            ([], "expected an object"),
            ({"translaton": [2.5, 2.5, 0.45], "yaw_deg": 3}, "unknown field 'translaton'"),
            (
                {"r": ["1", "0", "0", "0", "1", "0", "0", "0", "1"], "t": [2.5, 2.5, 0.45]},
                "r: expected 9 numbers or 3 rows of 3 numbers",
            ),
            (
                {"r": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": ["2.5", "2.5", "0.45"]},
                "t: expected 3 numbers",
            ),
            (
                {"r": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [2.5, 2.5, 0.45], "yaw_deg": 45},
                "give either r and t or translation/yaw_deg/quaternion, not both",
            ),
            (
                {"t": [2.5, 2.5, 0.45], "quaternion": [1, 0, 0, 0]},
                "give either r and t or translation/yaw_deg/quaternion, not both",
            ),
        ],
        ids=[
            "not_an_object", "misspelt_key", "r_strings", "t_strings", "r_t_with_yaw",
            "t_with_quaternion",
        ],
    )
    def test_malformed_init_pose_exits_two(self, tmp_path, pose, message):
        cfg_path = tiny_config(tmp_path)
        scan_path = tmp_path / "scan.csv"
        scan_path.write_text("x,y,z,class\n")
        pose_path = tmp_path / "init.json"
        pose_path.write_text(json.dumps(pose))
        proc = run_cli(
            "localize-once", "--config", str(cfg_path), "--scan", str(scan_path),
            "--init-pose", str(pose_path),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {pose_path}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tau-trans", "nan"),
            ("--tau-trans", "inf"),
            ("--tau-rot", "nan"),
            ("--delta", "nan"),
            ("--delta-prime", "nan"),
            ("--delta-prime", "inf"),
        ],
    )
    def test_non_finite_number_flag_exits_two(self, tmp_path, capsys, flag, value):
        cfg_path = tiny_config(tmp_path)
        scan_path = self._scan_file(tmp_path, load_config(cfg_path))
        with pytest.raises(SystemExit) as exit_:
            cli.main(["localize-once", "--config", str(cfg_path), "--scan", str(scan_path),
                      "--scan-variant", "weighted", flag, value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected a finite number, got '{value}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column, value", [(0, "nan"), (1, "inf"), (3, "nan")])
    def test_non_finite_scan_value_exits_two(self, tmp_path, column, value):
        """A nan or infinite coordinate, or one nan in a density column, is
        an input error naming the line."""
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        frame = generate_trial_sequence(
            assemble_scene(cfg).scene, cfg.robot_pose, 1, cfg.lidar, cfg.cameras,
            cfg.prism, cfg.oracle, seed=3,
        )[0]
        scan_path = tmp_path / "fused.csv"
        write_scan_csv(fuse_scan(frame.scan, frame.images, cfg), scan_path)
        lines = scan_path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[column] = value
        lines[5] = ",".join(fields)
        scan_path.write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "localize-once", "--config", str(cfg_path), "--scan", str(scan_path),
            "--icp", "full", "--scan-variant", "weighted",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {scan_path}:6: non-finite number\n"

    @pytest.mark.parametrize(
        "variant, densities, message",
        [
            ("filtered", None, "error: binary weighting needs fused densities"),
            ("weighted", 0.0, "error: max density must be > 0 to normalize"),
        ],
    )
    def test_density_errors_exit_two(self, tmp_path, variant, densities, message):
        cfg_path = tiny_config(tmp_path)
        scan_path = self._scan_file(tmp_path, load_config(cfg_path))
        if densities is not None:
            points = read_scan_csv(scan_path).points
            write_scan_csv(Scan(points, densities=np.full(len(points), densities)), scan_path)
        proc = run_cli(
            "localize-once",
            "--config", str(cfg_path),
            "--scan", str(scan_path),
            "--scan-variant", variant,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip() == message
        assert not (tmp_path / "out").exists()  # maps built, but saved only after localizing


def maps_file_arrays(data: bytes) -> list[tuple[int, int]]:
    """(offset, byte length) of each array of a maps file, by its table."""
    size = int.from_bytes(data[64:72], "little")
    spans, at = [], 72 + experiment._aligned(size)
    for dtype, shape in json.loads(data[72 : 72 + size]):
        nbytes = np.dtype(dtype).itemsize * math.prod(shape)
        spans.append((at, nbytes))
        at += experiment._aligned(nbytes)
    return spans


def flipped(data: bytes, at: int) -> bytes:
    """`data` with one bit of byte `at` flipped."""
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


def loads_saved_maps(config: Path, overrides: dict | None = None) -> bool:
    """Whether the config's maps file holds its maps and passes every check.
    (Two saves of one config differ in the tree nodes' pointer fields.)"""
    cfg = load_config(config, overrides)
    return experiment._load_maps(cfg, experiment._maps_key(cfg)) is not None


def repeated_point(data: bytes, at: int) -> bytes:
    """`data` with the first entry of the tree order at `at` set to the
    second, so it is no permutation, and its checksum made to match."""
    edited = bytearray(data)
    edited[at : at + 8] = data[at + 8 : at + 16]
    edited[32:64] = hashlib.sha256(edited[64:]).digest()
    return bytes(edited)


class TestMapsFile:
    """localize-once saves the maps it builds as `out_dir/maps.bin` and
    loads them on later requests of the same config and seed."""

    def _argv(self, tmp_path) -> list[str]:
        """A localize-once request on a tiny config's scan and images."""
        cfg_path = tiny_config(tmp_path)
        cfg = load_config(cfg_path)
        frame = generate_trial_sequence(
            assemble_scene(cfg).scene, cfg.robot_pose, 1, cfg.lidar, cfg.cameras,
            cfg.prism, cfg.oracle, seed=3,
        )[0]
        write_scan_csv(frame.scan, tmp_path / "scan.csv")
        argv = ["localize-once", "--config", str(cfg_path), "--scan", str(tmp_path / "scan.csv")]
        for i, image in enumerate(frame.images):
            write_density_pgm(image, tmp_path / f"cam{i}.pgm")
            argv += ["--image", str(tmp_path / f"cam{i}.pgm")]
        return argv

    def test_second_request_samples_no_map_and_builds_no_index(self, tmp_path, monkeypatch):
        argv = self._argv(tmp_path)
        counts = count_map_builds(monkeypatch)
        first = run_cli(*argv)
        assert counts == {"sample_model": 1, "MapIndex": 2}
        assert (tmp_path / "out" / MAPS_FILE).is_file()
        second = run_cli(*argv)
        assert counts == {"sample_model": 1, "MapIndex": 2}
        assert (second.returncode, second.stdout, second.stderr) == (0, first.stdout, "")

    @pytest.mark.parametrize("icp", ICP_METHODS)
    @pytest.mark.parametrize("variant", SCAN_METHODS)
    def test_loaded_maps_give_the_output_of_built_ones(self, tmp_path, icp, variant):
        argv = [*self._argv(tmp_path), "--icp", icp, "--scan-variant", variant]
        path = tmp_path / "out" / MAPS_FILE
        cold = run_cli(*argv)
        warm = run_cli(*argv)
        path.unlink()
        rebuilt = run_cli(*argv)
        assert cold.returncode == 0, cold.stderr
        for proc in (warm, rebuilt):
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, cold.stdout, "")
        assert loads_saved_maps(tmp_path / "exp.json")

    def test_loaded_reference_map_takes_over_the_full_map_certificates(
        self, tmp_path, monkeypatch
    ):
        """The loaded reference cloud is a `subset` of the loaded full
        cloud, so a selective localization's reference stage starts from
        the full-map stage's certificates, as on built maps: it searches
        the same rows for the same result."""
        argv = self._argv(tmp_path)
        assert run_cli(*argv).returncode == 0
        cfg = load_config(tmp_path / "exp.json")
        loaded = experiment._load_maps(cfg, experiment._maps_key(cfg))
        built = assemble_scene(cfg)
        assert loaded.ref_map.cloud.parent is loaded.full_map.cloud
        np.testing.assert_array_equal(loaded.ref_map.cloud.kept, built.ref_map.cloud.kept)
        scan = read_scan_csv(tmp_path / "scan.csv")
        rows, records = [], []
        for bundle in (loaded, built):
            tree = CountingTree(bundle.ref_map._tree)
            monkeypatch.setattr(bundle.ref_map, "_tree", tree)
            result = localize(
                scan, bundle.full_map, bundle.ref_map, cfg.initial_pose, ("selective", "full"),
                cfg=cfg.selective,
            )
            rows.append(tree.rows)
            records.append(result_record(result, "selective", "full"))
        assert records[0] == records[1] and records[0]["outcome"] == "localized"
        assert rows[0] == rows[1] > 0

    @pytest.mark.parametrize("stale", ["seed", "floorplan", "scipy"])
    def test_stale_file_is_rebuilt_and_overwritten(self, tmp_path, monkeypatch, stale):
        """A file saved for another seed, another floorplan or another
        scipy's tree layout is never loaded: the request builds its maps
        and saves them over it."""
        argv = self._argv(tmp_path)
        path, overrides = tmp_path / "out" / MAPS_FILE, {}
        with monkeypatch.context() as patch:
            if stale == "scipy":
                patch.setattr(MapIndex, "_STATE_FORMAT", "scipy 0.0 cKDTree")
            assert run_cli(*argv).returncode == 0
        if stale == "seed":
            argv, overrides = [*argv, "--seed", "9"], {"seed": 9}
        elif stale == "floorplan":
            plan = json.loads((tmp_path / "plan.json").read_text())
            plan["walls"][2]["thickness"] = 0.25
            (tmp_path / "plan.json").write_text(json.dumps(plan))
        old = path.read_bytes()
        counts = count_map_builds(monkeypatch)
        got = run_cli(*argv)
        assert counts == {"sample_model": 1, "MapIndex": 2}
        assert path.read_bytes() != old
        assert loads_saved_maps(tmp_path / "exp.json", overrides)
        path.unlink()
        want = run_cli(*argv)
        assert (got.returncode, got.stdout, got.stderr) == (want.returncode, want.stdout, "")
        assert loads_saved_maps(tmp_path / "exp.json", overrides)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data, spans: data[: len(data) // 2],
            lambda data, spans: data[:64],
            lambda data, spans: b"",
            lambda data, spans: flipped(data, spans[2][0] + 5),  # the full map's tree nodes
            lambda data, spans: flipped(data, spans[7][0] + 3),  # the reference map's tree order
            lambda data, spans: flipped(data, 40),  # the checksum
            # re-signed: it fails the permutation check before scipy reads it
            lambda data, spans: repeated_point(data, spans[3][0]),
            lambda data, spans: repeated_point(data, spans[7][0]),
        ],
        ids=[
            "truncated", "header_only", "empty", "tree_nodes", "tree_order", "checksum",
            "re_signed_full_order", "re_signed_reference_order",
        ],
    )
    def test_corrupt_file_is_rebuilt(self, tmp_path, monkeypatch, corrupt):
        argv = self._argv(tmp_path)
        path = tmp_path / "out" / MAPS_FILE
        want = run_cli(*argv)
        saved = path.read_bytes()
        path.write_bytes(corrupt(saved, maps_file_arrays(saved)))
        counts = count_map_builds(monkeypatch)
        got = run_cli(*argv)
        assert counts == {"sample_model": 1, "MapIndex": 2}
        assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, "")
        assert loads_saved_maps(tmp_path / "exp.json")

    @pytest.mark.parametrize("place", ["out_dir_is_a_file", "rename_fails"])
    def test_unwritable_place_changes_no_output(self, tmp_path, monkeypatch, place):
        argv = self._argv(tmp_path)
        want = run_cli(*argv)
        out = tmp_path / "out"
        (out / MAPS_FILE).unlink()
        if place == "out_dir_is_a_file":
            out.rmdir()
            out.write_text("not a directory")
        else:

            def no_rename(*args, **kwargs):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(os, "replace", no_rename)
        got = run_cli(*argv)
        assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, "")
        if place == "out_dir_is_a_file":
            assert out.read_text() == "not a directory"
        else:
            assert list(out.iterdir()) == []  # the temporary file is gone too
