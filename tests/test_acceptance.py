"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail
line (run with `pytest tests/test_acceptance.py -v -s` to see them inline).
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import planloc as pl
from planloc.experiment import load_config, run_execution, run_matrix, assemble_scene
from planloc.fusion import Scan, weights_linear
from planloc.geometry import RigidTransform, compose, invert, pose_delta
from planloc.metrics import (
    TrialRecord,
    accuracy_rmse,
    position_repeatability,
    rotation_repeatability,
)
from planloc.registration import (
    IcpConfig,
    MapIndex,
    gauss_newton_step,
    point_to_plane_icp,
    residual_jacobian,
)
from planloc.sensor_sim import LidarSpec, Scene, raycast_scan

from conftest import normals_at, pose_to_plane_cost, random_rotvec, square_room_plan, src_env
from test_metrics import (
    failed_record,
    localized_record,
    symmetric_eigenvalues_3x3,
    two_pass_covariance,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared experiment configuration files
# ---------------------------------------------------------------------------


def write_room_inputs(root, side=6.0):
    (root / "plan.json").write_text(
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
    (root / "refs.json").write_text(json.dumps(["floor", "wall_a", "wall_b"]))


def write_config(root, name="exp.json", **fields):
    doc = {
        "schema": 1,
        "floorplan": "plan.json",
        "references": "refs.json",
        "lidar": {"rings": 16, "azimuth_step_deg": 2.0, "range_noise_m": 0.01},
        "cameras": {"count": 3, "width": 128, "height": 96, "hfov_deg": 125.0},
        "prism": {"offset": [0.1, 0.0, 0.4]},
        "map_density_per_m2": 400,
        "n_executions": 1,
        "seed": 0,
        "out_dir": "out",
    }
    doc.update(fields)
    path = root / name
    path.write_text(json.dumps(doc))
    return path


def deviation_config(root, **extra):
    """Far wall sits 0.3 m closer than the plan claims; references span the
    near task corner."""
    write_room_inputs(root)
    fields = dict(
        deviation=[{"surfaces": ["wall_c"], "translation": [0, -0.3, 0]}],
        robot_pose={"translation": [3.0, 3.4, 0.45]},
        selective={
            "tau_trans_m": 0.4,
            "tau_rot_rad": 0.1,
            "icp": {"max_correspondence_m": 0.35, "huber_scale_m": 0.015},
        },
        n_scans=50,
    )
    fields.update(extra)
    return write_config(root, **fields)


def method_rmse(records_by_method):
    return {m: accuracy_rmse(recs) for m, recs in records_by_method.items()}


# ---------------------------------------------------------------------------
# Criterion 1: density-weighting equations
# ---------------------------------------------------------------------------


def test_c1_weighting_equations():
    binary = pl.weights_binary(
        Scan(points=np.zeros((3, 3)), densities=np.array([0.3, 0.5, 0.9])), delta=0.5
    )
    ok = (
        len(binary) == 2
        and np.array_equal(binary.weights, [1.0, 1.0])
        and np.array_equal(binary.densities, [0.5, 0.9])
    )
    all_kept = pl.weights_binary(
        Scan(points=np.zeros((3, 3)), densities=np.array([0.3, 0.5, 0.9])), delta=0.0
    )
    none_kept = pl.weights_binary(
        Scan(points=np.zeros((3, 3)), densities=np.array([0.3, 0.5, 0.99])), delta=1.0
    )
    ok &= len(all_kept) == 3 and len(none_kept) == 0

    linear = pl.weights_linear(
        Scan(points=np.zeros((2, 3)), densities=np.array([0.2, 0.8])), delta_prime=0.1
    )
    a = (1.0 + 0.1) / 0.8
    ok &= abs(a - 1.375) < 1e-12
    ok &= abs(linear.weights[0] - 0.175) < 1e-12 and abs(linear.weights[1] - 1.0) < 1e-12
    ok &= abs(a * 0.8 - 0.1 - 1.0) < 1e-12  # normalization puts the max at 1

    plain = pl.weights_linear(
        Scan(points=np.zeros((2, 3)), densities=np.array([0.5, 1.0])), delta_prime=0.0
    )
    ok &= np.max(np.abs(plain.weights - [0.5, 1.0])) < 1e-12
    uniform = pl.weights_linear(
        Scan(points=np.zeros((4, 3)), densities=np.full(4, 0.6)), delta_prime=0.1
    )
    ok &= np.max(np.abs(uniform.weights - 1.0)) < 1e-12
    report("criterion 1: weighting equations exact to 1e-12", bool(ok))


# ---------------------------------------------------------------------------
# Criterion 2: analytic Jacobian vs central finite differences
# ---------------------------------------------------------------------------


def test_c2_jacobian_finite_differences():
    rng = np.random.default_rng(21)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        base = RigidTransform.from_rotvec(random_rotvec(rng), rng.uniform(-3, 3, 3))
        p_local = rng.uniform(-4, 4, 3)
        p = base.apply(p_local)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        m = p + rng.normal(scale=0.2, size=3)
        analytic = residual_jacobian(p[None, :], n[None, :])[0]

        def residual(xi):
            t = RigidTransform(pl.geometry.rotvec_to_matrix(xi[:3]), xi[3:])
            return float((t.apply(p) - m) @ n)

        fd = np.array(
            [
                (residual(h * e) - residual(-h * e)) / (2 * h)
                for e in np.eye(6)
            ]
        )
        rel = np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6))
        worst = max(worst, rel)
    report(
        "criterion 2: Jacobian matches central differences",
        worst < 1e-5,
        f"worst relative error {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: noise-free convergence over 100 perturbed starts
# ---------------------------------------------------------------------------


def test_c3_noise_free_convergence(room_model, room_scene):
    # two elevation bands: steep rings see the floor near the robot, shallow
    # rings see the walls well above the floor line
    lidar = LidarSpec(
        ring_elevations_deg=tuple(
            np.concatenate([np.linspace(-40, -30, 3), np.linspace(-2, 15, 8)])
        ),
        azimuth_step_deg=2.0,
        range_noise_m=0.0,
    )
    pose = RigidTransform.from_rotvec([0, 0, 0.3], [3.0, 3.0, 0.5])
    index = MapIndex(pl.sample_model(room_model, 600.0, seed=7))
    successes = 0
    for s in range(100):
        rng = np.random.default_rng(100 + s)
        dt = rng.normal(size=3)
        dt *= 0.05 * rng.random() / np.linalg.norm(dt)
        ax = rng.normal(size=3)
        ax *= np.deg2rad(2.0) * rng.random() / np.linalg.norm(ax)
        init = compose(pose, RigidTransform.from_rotvec(ax, dt))
        scan = Scan(raycast_scan(room_scene, pose, lidar, seed=1000 + s).points)
        res = point_to_plane_icp(scan, index, init)
        d = pose_delta(res.transform, pose)
        if res.converged and d.translation_norm < 1e-3 and d.rotation_angle < np.deg2rad(0.05):
            successes += 1
    report(
        "criterion 3: noise-free recovery within 1 mm / 0.05 deg",
        successes >= 99,
        f"{successes}/100 seeds",
    )


# ---------------------------------------------------------------------------
# Criterion 4: 0.3 m structural deviation, selective vs full accuracy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deviation_records(tmp_path_factory):
    root = tmp_path_factory.mktemp("deviation")
    cfg = load_config(deviation_config(root))
    methods = [
        ("full", "full"),
        ("selective", "full"),
        ("selective", "filtered"),
        ("selective", "weighted"),
    ]
    return run_execution(assemble_scene(cfg), cfg, 0, methods=methods)


def test_c4_deviation_experiment(deviation_records):
    rmse = method_rmse(deviation_records)
    full = rmse[("full", "full")]
    sel = {m: v for m, v in rmse.items() if m[0] == "selective"}
    reduction = 1.0 - rmse[("selective", "full")] / full
    ok = (
        full >= 80.0
        and all(v <= 30.0 for v in sel.values())
        and reduction >= 0.30
    )
    detail = (
        f"full/full {full:.0f} mm; "
        + "; ".join(f"selective/{m[1]} {v:.1f} mm" for m, v in sel.items())
        + f"; reduction {100 * reduction:.0f}%"
    )
    report("criterion 4: 0.3 m deviation recovery", ok, detail)


def test_c4_all_selective_scans_localized(deviation_records):
    failures = sum(
        1
        for m, recs in deviation_records.items()
        if m[0] == "selective"
        for r in recs
        if not r.result.localized
    )
    report(
        "criterion 4 (aux): selective trials accepted by the consistency check",
        failures == 0,
        f"{failures} failed trials",
    )


# ---------------------------------------------------------------------------
# Criterion 5: clutter raises full-ICP error, density filtering recovers it
# ---------------------------------------------------------------------------


def test_c5_clutter_ordering(tmp_path):
    write_room_inputs(tmp_path)
    common = dict(
        robot_pose={"translation": [3.0, 3.0, 0.45], "yaw_deg": 45.0},
        lidar={"rings": 16, "azimuth_step_deg": 2.0, "range_noise_m": 0.03},
        n_scans=50,
    )
    clutter = dict(
        clutter=[
            {"id": "board_1", "center": [2.2, 0.5, 0.75], "size": [1.1, 0.08, 1.5]},
            {"id": "crate_1", "center": [3.9, 0.6, 0.3], "size": [0.6, 0.6, 0.6]},
        ],
        actors=[
            {
                "id": "worker",
                "center": [5.0, 4.2, 0.9],
                "size": [0.5, 0.5, 1.8],
                "velocity": [-0.25, 0.0, 0.0],
            }
        ],
    )
    cfg_clean = load_config(write_config(tmp_path, name="clean.json", **common))
    cfg_clutter = load_config(write_config(tmp_path, name="clutter.json", **common, **clutter))

    clean = run_execution(assemble_scene(cfg_clean), cfg_clean, 0, methods=[("full", "full")])
    cluttered = run_execution(
        assemble_scene(cfg_clutter), cfg_clutter, 0,
        methods=[("full", "full"), ("full", "filtered")],
    )
    r0 = accuracy_rmse(clean[("full", "full")])
    r1 = accuracy_rmse(cluttered[("full", "full")])
    r2 = accuracy_rmse(cluttered[("full", "filtered")])
    ok = r1 > r0 and r2 <= 1.5 * r0
    report(
        "criterion 5: clutter ordering and filtered recovery",
        ok,
        f"clean {r0:.2f} mm < cluttered {r1:.2f} mm; filtered {r2:.2f} mm <= 1.5x clean",
    )


# ---------------------------------------------------------------------------
# Criterion 6: corrupted lateral reference wall produces reported failures
# ---------------------------------------------------------------------------


def test_c6_failure_path(tmp_path):
    cfg_path = deviation_config(
        tmp_path,
        density_oracle={"rho": 1.0, "corrupt_surfaces": ["wall_b"]},
        selective={"tau_trans_m": 0.15, "tau_rot_rad": 0.05},
        n_scans=10,
    )
    cfg = load_config(cfg_path)
    csv_path, jsonl_path = run_matrix(cfg)
    entries = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    sel_filtered = [
        e for e in entries if e["method"] == {"icp": "selective", "scan": "filtered"}
    ]
    assert len(sel_filtered) == cfg.n_scans
    failing = [
        e
        for e in sel_filtered
        if e["outcome"] == "failed"
        and e["failure_reason"]
        in ("too_few_reference_matches", "rejected_inconsistent")
    ]
    frac = len(failing) / len(sel_filtered)

    csv_rows = csv_path.read_text().splitlines()
    row = next(r for r in csv_rows if r.startswith("selective,filtered"))
    reported_pct = float(row.split(",")[-1])
    trial_pct = 100.0 * sum(e["outcome"] == "failed" for e in sel_filtered) / len(sel_filtered)
    ok = frac > 0.5 and abs(reported_pct - trial_pct) < 1e-9
    report(
        "criterion 6: lateral-reference corruption failure path",
        ok,
        f"{100 * frac:.0f}% starved/rejected; report column {reported_pct:.1f}%",
    )


# ---------------------------------------------------------------------------
# Criterion 7: metric operations vs brute-force oracles
# ---------------------------------------------------------------------------


def test_c7_metrics_oracles():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 20))
        positions = rng.normal(scale=2e-3, size=(n, 3))
        rotvecs = rng.normal(scale=2e-3, size=(n, 3))
        records = [
            localized_record(i, positions[i], rotvec=rotvecs[i]) for i in range(n)
        ]
        pos = position_repeatability(records)
        cov = two_pass_covariance(positions * 1000.0)
        eigs = symmetric_eigenvalues_3x3(cov)
        worst = max(worst, abs(pos.trace - np.trace(cov)), abs(pos.max_eigenvalue - eigs[-1]))

        rot = rotation_repeatability(records)
        center = pl.geometry.mean_rotation(
            np.array([r.result.transform.rotation for r in records])
        )
        residuals = (
            np.array(
                [
                    pl.geometry.matrix_to_rotvec(center.T @ r.result.transform.rotation)
                    for r in records
                ]
            )
            * 1000.0
        )
        rcov = two_pass_covariance(residuals)
        reigs = symmetric_eigenvalues_3x3(rcov)
        worst = max(
            worst, abs(rot.trace - np.trace(rcov)), abs(rot.max_eigenvalue - reigs[-1])
        )

        rmse = accuracy_rmse(records)
        manual = np.sqrt(np.mean([np.sum((p * 1000.0) ** 2) for p in positions]))
        worst = max(worst, abs(rmse - manual))

    hand_cov = position_repeatability(
        [localized_record(0, [1e-3, 0, 0]), localized_record(1, [-1e-3, 0, 0])]
    )
    hand_rmse = accuracy_rmse(
        [localized_record(0, [3e-3, 0, 0]), localized_record(1, [0, 4e-3, 0])]
    )
    ok = (
        worst < 1e-9
        and abs(hand_cov.trace - 2.0) < 1e-9
        and abs(hand_rmse - 3.5355) < 1e-3
    )
    report(
        "criterion 7: metrics match brute-force oracles",
        ok,
        f"worst deviation {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: ICP solution beats an exhaustive 3-dof pose grid
# ---------------------------------------------------------------------------


def test_c8_brute_force_pose_grid(room_model):
    rng = np.random.default_rng(88)
    cloud = pl.sample_model(room_model, 200.0, seed=8)
    index = MapIndex(cloud)
    pose = RigidTransform.from_rotvec([0, 0, 0.3], [3.0, 3.0, 0.5])
    pick = rng.choice(len(cloud), size=150, replace=False)
    noisy = cloud.points[pick] + rng.normal(scale=0.005, size=(150, 3))
    scan = Scan(points=invert(pose).apply(noisy))

    cfg = IcpConfig(
        max_iterations=200,
        max_correspondence_m=np.inf,
        translation_eps_m=1e-7,
        rotation_eps_rad=1e-8,
        huber_scale_m=np.inf,  # Huber at the infinite gate: the squared cost
        min_correspondences=30,
    )
    res = point_to_plane_icp(scan, index, pose, cfg)
    assert res.converged
    icp_cost = pose_to_plane_cost(scan, index, res.transform)

    offsets = np.arange(-0.1, 0.1001, 0.005)
    yaws = np.deg2rad(np.arange(-2.0, 2.001, 0.1))
    dxy = np.stack(np.meshgrid(offsets, offsets, indexing="ij"), axis=-1).reshape(-1, 2)
    shifts = np.zeros((len(dxy), 3))
    shifts[:, :2] = dxy
    grid_min = np.inf
    for yaw in yaws:
        c, s = np.cos(yaw), np.sin(yaw)
        rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        base = scan.points @ (rz @ pose.rotation).T + pose.translation
        batch = (base[None, :, :] + shifts[:, None, :]).reshape(-1, 3)
        idx, _ = index.query(batch)
        diff = batch - cloud.points[idx]
        resid = np.einsum("ij,ij->i", diff, normals_at(cloud, idx))
        costs = (resid**2).reshape(len(shifts), -1).sum(axis=1)
        grid_min = min(grid_min, float(costs.min()))

    ok = icp_cost <= grid_min + 1e-6
    report(
        "criterion 8: ICP cost beats exhaustive grid",
        ok,
        f"icp {icp_cost:.9f} <= grid min {grid_min:.9f} + 1e-6",
    )


# ---------------------------------------------------------------------------
# Criterion 9: deterministic method-matrix reports
# ---------------------------------------------------------------------------


def test_c9_run_matrix_determinism(tmp_path):
    write_room_inputs(tmp_path, side=5.0)
    cfg_path = write_config(
        tmp_path,
        lidar={"rings": 8, "azimuth_step_deg": 4.0, "range_noise_m": 0.01},
        cameras={"count": 3, "width": 64, "height": 48, "hfov_deg": 125.0},
        map_density_per_m2=150,
        robot_pose={"translation": [2.5, 2.5, 0.45]},
        n_scans=3,
        n_executions=2,
        seed=11,
    )
    runs = []
    for sub in ("a", "b"):
        proc = subprocess.run(
            [
                sys.executable, "-m", "planloc", "run-matrix",
                "--config", str(cfg_path), "--out", str(tmp_path / sub),
            ],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((tmp_path / sub / "report.csv").read_bytes())
    identical = runs[0] == runs[1]

    lines = runs[0].decode().splitlines()
    methods = [tuple(line.split(",")[:2]) for line in lines[1:]]
    expected = [
        ("full", "full"), ("full", "filtered"), ("full", "weighted"),
        ("selective", "full"), ("selective", "filtered"), ("selective", "weighted"),
    ]
    ok = identical and len(lines) == 7 and methods == expected
    report(
        "criterion 9: byte-identical deterministic reports, 6-row matrix",
        ok,
        f"identical={identical}, rows={len(lines) - 1}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: weighting invariances of the solver
# ---------------------------------------------------------------------------


def test_c10_argmin_invariances(room_model, room_scene):
    lidar = LidarSpec(
        ring_elevations_deg=tuple(
            np.concatenate([np.linspace(-40, -30, 3), np.linspace(-2, 15, 8)])
        ),
        azimuth_step_deg=3.0,
        range_noise_m=0.0,
    )
    pose = RigidTransform.from_rotvec([0, 0, 0.3], [3.0, 3.0, 0.5])
    index = MapIndex(pl.sample_model(room_model, 300.0, seed=7))
    raw = raycast_scan(room_scene, pose, lidar, seed=4)
    init = compose(pose, RigidTransform.from_rotvec([0, 0, 0.01], [0.02, -0.01, 0.005]))

    plain = point_to_plane_icp(Scan(raw.points), index, init)
    uniform = weights_linear(
        Scan(points=raw.points, densities=np.full(len(raw), 0.7)), delta_prime=0.1
    )
    weighted = point_to_plane_icp(uniform, index, init)
    equal = max(
        np.max(np.abs(plain.transform.rotation - weighted.transform.rotation)),
        np.max(np.abs(plain.transform.translation - weighted.transform.translation)),
    )

    world = init.apply(raw.points)
    idx, valid = index.query(world, 0.5)
    p, m = world[valid], index.cloud.points[idx[valid]]
    nrm = normals_at(index.cloud, idx[valid])
    rng = np.random.default_rng(10)
    w = rng.uniform(0.05, 1.0, size=len(p))
    jac, residuals = residual_jacobian(p, nrm), np.einsum("ij,ij->i", p - m, nrm)
    base_step = gauss_newton_step(jac, residuals, w)
    scale_dev = max(
        float(np.max(np.abs(gauss_newton_step(jac, residuals, lam * w) - base_step)))
        for lam in (0.01, 7.3, 1000.0)
    )
    ok = equal <= 1e-9 and scale_dev <= 1e-10
    report(
        "criterion 10: weighting argmin invariances",
        ok,
        f"uniform-vs-plain {equal:.2e}; scale deviation {scale_dev:.2e}",
    )
