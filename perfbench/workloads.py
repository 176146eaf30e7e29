"""The three benchmark workloads and their seeded input generators.

Every workload writes its inputs under its own work directory during set-up:
experiment config, floorplan and reference-set JSON, and for once_replay the
scan CSVs, density PGMs and initial-pose files. The program sees only those
files. All randomness comes from the `--seed` argument, so one seed always
gives the same inputs.

A workload is driven by the runner as
    setup(rep)         timed, repeated; the last set-up is used
    run_op(k)          timed; one request (once_replay, site_sim) or one
                       run_matrix call (room_matrix)
    collect(k, handle) untimed; turns the op's output into an OpResult and
                       checks it
    check()            untimed; checks that need the whole run
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from planloc import cli, experiment, fusion, geometry, metrics, registration, sensor_sim

GATED_METHOD = ("selective", "weighted")
# selective x weighted prism RMSE must stay below this (measured ~6 mm)
RMSE_TOLERANCE_MM = 25.0


@dataclass(frozen=True)
class Size:
    """Rig and scene size; FULL is what the benchmark measures, TINY is for
    the smoke test."""

    azimuth_step_deg: float
    camera_width: int
    camera_height: int
    map_density_per_m2: float
    site_grid: int
    replay_frames: int


FULL = Size(0.4, 160, 120, 400.0, 4, 4)
TINY = Size(6.0, 32, 24, 100.0, 2, 2)


@dataclass
class OpResult:
    frames: int
    trials: int
    failed: int  # failed localizations plus raised errors, of `trials`
    gated: list  # metrics.TrialRecord of selective x weighted
    errors: list[str] = field(default_factory=list)


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1))
    return path


def _seed_base(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 30))


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

ROOM_PLAN = {
    "walls": [
        {"start": [0, 0], "end": [6, 0], "thickness": 0.2, "id": "wall_a"},
        {"start": [0, 0], "end": [0, 6], "thickness": 0.2, "id": "wall_b"},
        {"start": [0, 6], "end": [6, 6], "thickness": 0.2, "id": "wall_c"},
        {"start": [6, 0], "end": [6, 6], "thickness": 0.2, "id": "wall_d"},
    ],
    "wall_height": 2.5,
    "floor": [[0, 0], [6, 0], [6, 6], [0, 6]],
}

ROBOT_Z = 0.45


def _rig(size: Size) -> dict:
    return {
        "lidar": {"rings": 16, "azimuth_step_deg": size.azimuth_step_deg, "range_noise_m": 0.01},
        "cameras": {
            "count": 3,
            "width": size.camera_width,
            "height": size.camera_height,
            "hfov_deg": 125.0,
        },
        "prism": {"offset": [0.1, 0.0, 0.4]},
        "map_density_per_m2": size.map_density_per_m2,
        "selective": {
            "tau_trans_m": 0.4,
            "tau_rot_rad": 0.1,
            "icp": {"max_correspondence_m": 0.35, "huber_scale_m": 0.015},
        },
    }


def _room_content(x0: float, y0: float) -> dict:
    """What stands in the paper's room with its lower left corner at (x0, y0):
    two clutter boxes, one walking actor, and the robot 2.6 m from the
    reference wall, starting from a pose 6 cm and 1 degree off."""

    def at(x, y, z):
        return [x0 + x, y0 + y, z]

    return {
        "clutter": [
            {"id": "box_1", "center": at(4.5, 1.5, 0.5), "size": [0.8, 0.6, 1.0], "yaw_deg": 20},
            {"id": "box_2", "center": at(1.2, 4.6, 0.4), "size": [0.6, 0.6, 0.8]},
        ],
        "actors": [
            {"id": "worker", "center": at(4.0, 4.5, 0.9), "size": [0.5, 0.4, 1.8],
             "velocity": [0.2, 0.0, 0.0]},
        ],
        "robot_pose": {"translation": at(3.0, 2.6, ROBOT_Z)},
        "initial_pose": {"translation": at(3.05, 2.56, ROBOT_Z), "yaw_deg": 1.0},
    }


def room_config(size: Size, seed: int, n_scans: int) -> dict:
    """The paper's set-up: a 6 m room whose far wall stands 0.3 m off the
    plan; references are the floor and the near corner."""
    return {
        "schema": 1,
        "floorplan": "plan.json",
        "references": "refs.json",
        "deviation": [{"surfaces": ["wall_c"], "translation": [0, -0.3, 0]}],
        **_room_content(0.0, 0.0),
        **_rig(size),
        "n_scans": n_scans,
        "n_executions": 1,
        "seed": seed,
        "out_dir": "out",
    }


def write_room(directory: Path, size: Size, seed: int, n_scans: int) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    _write_json(directory / "plan.json", ROOM_PLAN)
    _write_json(directory / "refs.json", ["floor", "wall_a", "wall_b"])
    return _write_json(directory / "exp.json", room_config(size, seed, n_scans))


def site_documents(rng: np.random.Generator, size: Size) -> tuple[dict, list, dict]:
    """A `site_grid` x `site_grid` grid of about 6 m rooms, built from
    `site_grid + 1` full-length wall lines each way.

    The robot stands in room (1, 1), which is the room of room_config: its
    four wall lines sit on the 6 m grid, its upper line is built 0.3 m into
    the room and it holds the same boxes and actor. Everything else comes
    from the seed: the other grid lines and wall thicknesses are jittered,
    the other rooms hold 2 or 3 yawed crates (2.5 boxes per room in all, so
    the triangle count is fixed) and three more actors walk in them. Holding
    the robot's room fixed keeps the accuracy figures comparable between
    seeds; the ray caster still tests every triangle.
    """
    n = size.site_grid
    edge = 6.0 * n
    fixed = (1, 2)  # grid lines bounding the robot's room

    def line(i):
        return 6.0 * i + (rng.uniform(-0.25, 0.25) if 0 < i < n and i not in fixed else 0.0)

    def thickness(i):
        return 0.2 if i in fixed else rng.uniform(0.15, 0.25)

    xs = [line(i) for i in range(n + 1)]
    ys = [line(j) for j in range(n + 1)]
    walls = [
        {"start": [x, 0.0], "end": [x, edge], "thickness": thickness(i), "id": f"wall_x{i}"}
        for i, x in enumerate(xs)
    ] + [
        {"start": [0.0, y], "end": [edge, y], "thickness": thickness(j), "id": f"wall_y{j}"}
        for j, y in enumerate(ys)
    ]
    plan = {
        "walls": walls,
        "wall_height": 2.5,
        "floor": [[0.0, 0.0], [edge, 0.0], [edge, edge], [0.0, edge]],
    }
    robot_room = _room_content(6.0, 6.0)
    others = [(i, j) for i in range(n) for j in range(n) if (i, j) != (1, 1)]

    def spot(i, j, margin):
        return [rng.uniform(xs[i] + margin, xs[i + 1] - margin),
                rng.uniform(ys[j] + margin, ys[j + 1] - margin)]

    clutter = list(robot_room["clutter"])
    extra = int(2.5 * n * n) - len(clutter) - 2 * len(others)
    third = set(rng.choice(len(others), size=extra, replace=False).tolist())
    for r, (i, j) in enumerate(others):
        for c in range(3 if r in third else 2):
            dims = rng.uniform([0.4, 0.4, 0.4], [1.2, 1.2, 1.5])
            x, y = spot(i, j, 0.3 + 0.5 * float(np.hypot(dims[0], dims[1])))
            clutter.append({"id": f"crate_{i}_{j}_{c}", "center": [x, y, dims[2] / 2],
                            "size": dims.tolist(), "yaw_deg": rng.uniform(0.0, 90.0)})
    actors = list(robot_room["actors"])
    for a in range(3):
        i, j = others[int(rng.integers(len(others)))]
        x, y = spot(i, j, 0.6)
        actors.append({"id": f"actor_{a}", "center": [x, y, 0.9], "size": [0.5, 0.4, 1.8],
                       "velocity": [rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 0.0]})
    config = {
        "schema": 1,
        "floorplan": "plan.json",
        "references": "refs.json",
        "deviation": [{"surfaces": ["wall_y2"], "translation": [0, -0.3, 0]}],
        **robot_room,
        "clutter": clutter,
        "actors": actors,
        **_rig(size),
        "n_scans": 1,
        "n_executions": 1,
        "seed": 0,
        "out_dir": "out",
    }
    return plan, ["floor", "wall_x1", "wall_y1"], config


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def gated_record(index, transform, reason, cfg) -> metrics.TrialRecord:
    """TrialRecord of one selective x weighted outcome against ground truth."""
    if transform is not None:
        result = registration.LocalizationResult(transform, None)
        estimate = sensor_sim.prism_position(transform, cfg.prism)
    else:
        result = registration.LocalizationResult(None, registration.FailureReason(reason))
        estimate = None
    return metrics.TrialRecord(
        scan_index=index,
        result=result,
        true_pose=cfg.robot_pose,
        true_prism=sensor_sim.prism_position(cfg.robot_pose, cfg.prism),
        estimated_prism=estimate,
    )


def _transform(doc) -> geometry.RigidTransform | None:
    if doc is None:
        return None
    return geometry.RigidTransform(np.array(doc["r"]).reshape(3, 3), doc["t"])


def file_roundtrip_errors(frame, directory: Path) -> list[str]:
    """Write a frame's scan CSV and density PGMs, read them back and compare:
    the files a robot would send must keep points to 1e-8 m and scores to
    one 16-bit step."""
    directory.mkdir(parents=True, exist_ok=True)
    errors = []
    sensor_sim.write_scan_csv(frame.scan, directory / "scan.csv")
    back = sensor_sim.read_scan_csv(directory / "scan.csv")
    if back.points.shape != frame.scan.points.shape or not (
        np.abs(back.points - frame.scan.points).max(initial=0.0) <= 1e-8
        and np.array_equal(back.classes, frame.scan.classes)
    ):
        errors.append("scan CSV round trip changed the scan")
    for c, image in enumerate(frame.images):
        sensor_sim.write_density_pgm(image, directory / f"cam{c}.pgm")
        read = sensor_sim.read_density_pgm(directory / f"cam{c}.pgm")
        if np.abs(read.values - image.values).max() > 0.5 / 65535 + 1e-12:
            errors.append(f"density PGM {c} round trip changed the image")
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    setup_reps = 3
    # accuracy metrics use the first `min_ops` operations, which always run
    # even when --seconds is shorter, so they depend on the seed alone
    min_ops = 4

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.size = size
        self.work = work_dir

    def check(self) -> list[str]:
        return []


class RoomMatrix(Workload):
    """The paper's experiment as researchers run it: experiment.run_matrix
    with all six methods on every frame of the deviated, cluttered room.
    Registration does most of the work, ray casting the rest."""

    name = "room_matrix"
    setup_reps = 15  # set-up takes well under 0.1 s here
    # one frame per run_matrix call, so a 30 s run times about ten calls and
    # their median holds against per-call noise of about 10 %; repeatability
    # comes from the gated records of the first `min_ops` calls together
    n_scans = 1
    min_ops = 8

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.base = _seed_base(self.rng)
        self.reports: dict[int, Path] = {}

    def setup(self, rep: int) -> None:
        self.config = write_room(self.work / f"setup{rep}", self.size, self.base, self.n_scans)
        self.cfg = experiment.load_config(self.config)
        self.bundle = experiment.assemble_scene(self.cfg)

    def _call(self, seed: int, out: Path):
        cfg = experiment.load_config(self.config, {"seed": seed, "out_dir": str(out)})
        return experiment.run_matrix(cfg)

    def run_op(self, k: int):
        return self._call(self.base + k * self.n_scans, self.work / f"op{k}")

    def collect(self, k: int, handle) -> OpResult:
        csv_path, jsonl_path = handle
        self.reports[k] = csv_path
        errors = []
        rows = csv_path.read_text().splitlines()
        methods = [tuple(r.split(",")[:2]) for r in rows[1:]]
        if methods != list(experiment.METHOD_MATRIX):
            errors.append(f"op {k}: report.csv rows {methods} are not the method matrix")
        entries = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
        if len(entries) != len(experiment.METHOD_MATRIX) * self.n_scans:
            errors.append(f"op {k}: trials.jsonl has {len(entries)} records")
        gated = [
            gated_record(e["scan_index"], _transform(e["transform"]), e.get("failure_reason"),
                         self.cfg)
            for e in entries
            if (e["method"]["icp"], e["method"]["scan"]) == GATED_METHOD
        ]
        failed = sum(e["outcome"] != "localized" for e in entries)
        return OpResult(self.n_scans, len(entries), failed, gated, errors)

    def check(self) -> list[str]:
        """The same seed must give a byte-identical report and trial log; the
        scan and image files of one frame must survive a round trip."""
        errors = []
        again_csv, again_jsonl = self._call(self.base, self.work / "op0-again")
        first = self.reports[0]
        if again_csv.read_bytes() != first.read_bytes():
            errors.append("report.csv differs between two runs with one seed")
        if again_jsonl.read_bytes() != (first.parent / "trials.jsonl").read_bytes():
            errors.append("trials.jsonl differs between two runs with one seed")
        frame = sensor_sim.generate_trial_sequence(
            self.bundle.scene, self.cfg.robot_pose, 1, self.cfg.lidar, self.cfg.cameras,
            self.cfg.prism, self.cfg.oracle, seed=self.base,
        )[0]
        return errors + file_roundtrip_errors(frame, self.work / "roundtrip")


class OnceReplay(Workload):
    """The robot-facing single-shot path: one client in a closed loop calling
    `planloc localize-once` in-process on scan CSVs and density PGMs written
    from seeded room frames. Registration plus per-request scene assembly and
    CSV parsing; no ray casting."""

    name = "once_replay"
    min_ops = 16
    n_inits = 64

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.base = _seed_base(self.rng)
        robot = np.array(_room_content(0.0, 0.0)["robot_pose"]["translation"])
        offsets = self.rng.uniform([-0.03, -0.03, -0.01, -1.0], [0.03, 0.03, 0.01, 1.0],
                                   size=(self.n_inits, 4))
        self.init_docs = [
            {"translation": (robot + o[:3]).tolist(), "yaw_deg": o[3]} for o in offsets
        ]

    def setup(self, rep: int) -> None:
        root = self.work / f"setup{rep}"
        self.config = write_room(root, self.size, self.base, 1)
        self.cfg = experiment.load_config(self.config)
        bundle = experiment.assemble_scene(self.cfg)
        frames = sensor_sim.generate_trial_sequence(
            bundle.scene, self.cfg.robot_pose, self.size.replay_frames, self.cfg.lidar,
            self.cfg.cameras, self.cfg.prism, self.cfg.oracle, seed=self.base,
        )
        self.frames = []
        for f, frame in enumerate(frames):
            scan = root / f"scan{f}.csv"
            sensor_sim.write_scan_csv(frame.scan, scan)
            images = []
            for c, image in enumerate(frame.images):
                images.append(root / f"scan{f}_cam{c}.pgm")
                sensor_sim.write_density_pgm(image, images[-1])
            self.frames.append((scan, images))
        self.inits = [
            _write_json(root / f"init{i}.json", doc) for i, doc in enumerate(self.init_docs)
        ]

    def run_op(self, k: int):
        scan, images = self.frames[k % len(self.frames)]
        argv = ["localize-once", "--config", str(self.config), "--scan", str(scan)]
        for image in images:
            argv += ["--image", str(image)]
        argv += ["--init-pose", str(self.inits[k % len(self.inits)]),
                 "--icp", GATED_METHOD[0], "--scan-variant", GATED_METHOD[1]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def collect(self, k: int, handle) -> OpResult:
        code, out, err = handle
        if code == 2:
            return OpResult(1, 1, 1, [], [f"request {k}: exit code 2: {err.strip()}"])
        doc = json.loads(out)
        errors = []
        if (code == 0) != (doc["outcome"] == "localized") or code not in (0, 1):
            errors.append(f"request {k}: exit code {code} with outcome {doc['outcome']}")
        record = gated_record(k, _transform(doc["transform"]), doc.get("failure_reason"), self.cfg)
        return OpResult(1, 1, int(code != 0), [record], errors)


class SiteSim(Workload):
    """Simulate, fuse and localize one frame at a time in a 4x4-room site: the
    rig and the robot's room of room_matrix, but 650 triangles and a
    ~750k-point map, so ray casting dominates and registration queries
    kd-trees far larger than L2."""

    name = "site_sim"

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.plan, self.refs, self.doc = site_documents(self.rng, size)
        self.base = _seed_base(self.rng)
        self.last_frame = None

    def setup(self, rep: int) -> None:
        root = self.work / f"setup{rep}"
        root.mkdir(parents=True, exist_ok=True)
        _write_json(root / "plan.json", self.plan)
        _write_json(root / "refs.json", self.refs)
        self.cfg = experiment.load_config(_write_json(root / "exp.json", self.doc))
        self.bundle = None  # release the previous set-up's maps first
        self.bundle = experiment.assemble_scene(self.cfg)

    def run_op(self, k: int):
        cfg, bundle = self.cfg, self.bundle
        frame = sensor_sim.generate_trial_sequence(
            bundle.scene, cfg.robot_pose, 1, cfg.lidar, cfg.cameras, cfg.prism, cfg.oracle,
            seed=self.base + k,
        )[0]
        triples = [(img, cam, cam.extrinsic) for img, cam in zip(frame.images, cfg.cameras)]
        fused, _ = fusion.fuse_densities(frame.scan, triples, cfg.fusion)
        result = registration.localize(
            fused, bundle.full_map, bundle.ref_map, cfg.initial_pose, GATED_METHOD,
            delta=cfg.delta, delta_prime=cfg.delta_prime, cfg=cfg.selective,
        )
        return frame, result

    def collect(self, k: int, handle) -> OpResult:
        frame, result = handle
        self.last_frame = frame
        reason = result.failure_reason.value if result.failure_reason else None
        record = gated_record(k, result.transform, reason, self.cfg)
        return OpResult(1, 1, int(not result.localized), [record])

    def check(self) -> list[str]:
        return file_roundtrip_errors(self.last_frame, self.work / "roundtrip")


WORKLOADS = {w.name: w for w in (RoomMatrix, OnceReplay, SiteSim)}
