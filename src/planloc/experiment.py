"""Experiment orchestration: the JSON input schema and its readers
(configuration, with the plan, reference set and as-built scene a config
names; pose files), map building, the 2x3 (icp x scan) method matrix over
stationary trial sequences, and report emission.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .fusion import FusionConfig, fuse_densities
from .geometry import RigidTransform
from .metrics import (
    MetricsReport,
    TrialRecord,
    average_executions,
    compute_report,
    write_report_csv,
)
from .model import (
    BuildingModel,
    Deviation,
    Floorplan2D,
    ModelError,
    ReferenceSet,
    WallSegment,
    apply_deviation,
    extrude_floorplan,
    make_box_surface,
    sample_model,
    save_model,
    validate_reference_set,
)
from .registration import (
    ICP_METHODS,
    SCAN_METHODS,
    IcpConfig,
    LocalizationResult,
    MapIndex,
    SelectiveConfig,
    conclude,
    localize,
    result_record,
)
from .sensor_sim import (
    Actor,
    CameraSpec,
    DensityImage,
    DensityOracleParams,
    LidarSpec,
    PrismSpec,
    Scan,
    Scene,
    default_camera_rig,
    iter_trial_sequence,
    prism_position,
)

METHOD_MATRIX: tuple[tuple[str, str], ...] = tuple(
    (icp, scan) for icp in ICP_METHODS for scan in SCAN_METHODS
)


class ConfigError(Exception):
    """Configuration problem; the message names the file and field."""


def _checked(path: Path, parse):
    """`parse(path)`; an input error it raises becomes a ConfigError naming
    `path`, and a missing key becomes "missing required field"."""
    try:
        return parse(path)
    except KeyError as e:
        raise ConfigError(f"{path}: missing required field {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    except OSError as e:
        raise ConfigError(f"{path}: cannot read: {e.strerror or e}") from e
    except (AttributeError, TypeError, ValueError, ModelError) as e:
        raise ConfigError(f"{path}: {e}") from e


class Kind(NamedTuple):
    """A leaf value kind: its name in error messages and its test."""

    name: str
    fits: Callable[[object], bool]


def _finite(value) -> bool:
    """A finite JSON number: an int, or a float that is not NaN or infinite."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def _numbers(n: int) -> Kind:
    return Kind(
        f"{n} numbers", lambda v: type(v) is list and len(v) == n and all(map(_finite, v))
    )


INT = Kind("an integer", lambda v: type(v) is int)
NUM = Kind("a number", _finite)
STR = Kind("a string", lambda v: type(v) is str)
STRS = Kind("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v))
# 9 numbers row-major, as localize-once prints a transform, or 3 rows of 3
ROTATION = Kind(
    "9 numbers or 3 rows of 3 numbers",
    lambda v: _numbers(9).fits(v)
    or (type(v) is list and len(v) == 3 and all(map(_numbers(3).fits, v))),
)

_POSE = {"translation": _numbers(3), "yaw_deg": NUM, "quaternion": _numbers(4)}
_BOX = {"id": STR, "center": _numbers(3), "size": _numbers(3), "yaw_deg": NUM}
_ICP = {
    "max_iterations": INT, "max_correspondence_m": NUM, "translation_eps_m": NUM,
    "rotation_eps_rad": NUM, "huber_scale_m": NUM, "min_correspondences": INT,
}

# Every key that each JSON input may hold, with the kind of its value: a leaf
# kind, a dict for an object holding only those keys, or a one-element list
# for a list of entries of that kind. Whether a key is required, and what an
# absent one defaults to, is for the reader of the file.
SCHEMA = {
    "config": {
        "schema": INT, "floorplan": STR, "references": STR,
        "deviation": [{"surfaces": STRS, **_POSE}],
        "clutter": [_BOX],
        "actors": [{**_BOX, "velocity": _numbers(3)}],
        "lidar": {
            "rings": INT, "elevation_min_deg": NUM, "elevation_max_deg": NUM,
            "azimuth_step_deg": NUM, "max_range_m": NUM, "range_noise_m": NUM,
        },
        "cameras": {
            "count": INT, "width": INT, "height": INT, "hfov_deg": NUM, "mount": _numbers(3),
        },
        "prism": {"offset": _numbers(3)},
        "density_oracle": {
            "mu_bg": NUM, "mu_fg": NUM, "sigma": NUM, "rho": NUM, "corrupt_surfaces": STRS,
        },
        "fusion": {"delta": NUM, "delta_prime": NUM, "rule": STR},
        "icp": _ICP,
        "selective": {"tau_trans_m": NUM, "tau_rot_rad": NUM, "icp": _ICP},
        "map_density_per_m2": NUM,
        "robot_pose": _POSE,
        "initial_pose": _POSE,
        "n_scans": INT, "n_executions": INT, "seed": INT, "out_dir": STR, "scan_period_s": NUM,
    },
    "floorplan": {
        "walls": [{"start": _numbers(2), "end": _numbers(2), "thickness": NUM, "id": STR}],
        "wall_height": NUM,
        "floor": [_numbers(2)],
    },
    "references": STRS,
    "pose": {**_POSE, "r": ROTATION, "t": _numbers(3)},
}


def _at(where: str) -> str:
    """Message prefix naming a place in an input file; "" for its top level."""
    return f"{where}: " if where else ""


def check(value, kind, where: str = "") -> None:
    """Raise ValueError unless `value`, found at `where`, is of `kind` (as in
    SCHEMA). The message names the offending place: key k of an object at
    `where` is `where.k` when it holds an object, else `where: k`, and entry i
    of a list is `where[i]`."""
    if isinstance(kind, dict):
        if type(value) is not dict:
            raise ValueError(f"{_at(where)}expected an object")
        for key, item in value.items():
            if key not in kind:
                raise ValueError(f"{_at(where)}unknown field '{key}'")
            nested = where and isinstance(kind[key], dict)
            check(item, kind[key], f"{where}.{key}" if nested else f"{_at(where)}{key}")
    elif isinstance(kind, list):
        if type(value) is not list:
            raise ValueError(f"{_at(where)}expected a list")
        for i, item in enumerate(value):
            check(item, kind[0], f"{where}[{i}]")
    elif not kind.fits(value):
        raise ValueError(f"{_at(where)}expected {kind.name}")


def _load(path: Path, form: str):
    """The JSON document in file `path`, checked against `SCHEMA[form]`."""
    doc = json.loads(path.read_text())
    check(doc, SCHEMA[form])
    return doc


def load_floorplan(path) -> Floorplan2D:
    """Read `{"walls": [{"start", "end", "thickness", "id"}], "wall_height", "floor"}`."""
    doc = _load(Path(path), "floorplan")
    walls = tuple(
        WallSegment(w["start"], w["end"], float(w["thickness"]), w.get("id"))
        for w in doc["walls"]
    )
    return Floorplan2D(walls, float(doc["wall_height"]), doc["floor"])


def load_reference_set(path) -> ReferenceSet:
    """Read a JSON list of surface id strings."""
    return ReferenceSet(tuple(_load(Path(path), "references")))


def _pose_from_obj(obj: dict, where: str) -> RigidTransform:
    """A config pose: `translation` plus `yaw_deg` or `quaternion`."""
    translation = obj.get("translation", [0.0, 0.0, 0.0])
    if "quaternion" in obj and "yaw_deg" in obj:
        raise ValueError(f"{_at(where)}give either quaternion or yaw_deg, not both")
    if "quaternion" in obj:
        return RigidTransform.from_quat(obj["quaternion"], translation)
    yaw = np.deg2rad(float(obj.get("yaw_deg", 0.0)))
    return RigidTransform.from_rotvec([0.0, 0.0, yaw], translation)


def load_pose(path) -> RigidTransform:
    """Read a pose file: `{"r": rotation, "t": [x, y, z]}`, the rotation as
    9 numbers row-major (the `transform` that localize-once prints) or 3 rows,
    or a config pose (`translation` plus `yaw_deg` or `quaternion`)."""
    return _checked(Path(path), _parse_pose)


def _parse_pose(path: Path) -> RigidTransform:
    doc = _load(path, "pose")
    if "r" in doc or "t" in doc:
        if doc.keys() & _POSE.keys():
            raise ValueError("give either r and t or translation/yaw_deg/quaternion, not both")
        return RigidTransform(np.reshape(doc["r"], (3, 3)), doc["t"])
    return _pose_from_obj(doc, "")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, loadable from a single JSON file:
    the as-planned model, its validated reference set and the as-built scene
    (deviated building, clutter, actors), plus sensor and solver settings."""

    plan: BuildingModel
    references: ReferenceSet
    scene: Scene
    lidar: LidarSpec
    cameras: tuple[CameraSpec, ...]
    prism: PrismSpec
    oracle: DensityOracleParams
    fusion: FusionConfig
    delta: float
    delta_prime: float
    selective: SelectiveConfig
    map_density_per_m2: float
    robot_pose: RigidTransform
    initial_pose: RigidTransform
    n_scans: int
    n_executions: int
    seed: int
    out_dir: Path
    scan_period_s: float

    def __post_init__(self):
        if self.n_scans < 1 or self.n_executions < 1:
            raise ValueError("n_scans and n_executions must be >= 1")
        if not 0 <= self.delta <= 1:  # densities lie in [0, 1]
            raise ValueError("delta: expected a number in [0, 1]")
        if not self.delta_prime >= 0:  # 1 + delta_prime normalizes the linear weights
            raise ValueError("delta_prime: expected a number >= 0")


def _clutter_surface(defn: dict):
    """A clutter box."""
    return make_box_surface(
        defn["id"],
        center=defn["center"],
        size=defn["size"],
        yaw_rad=np.deg2rad(float(defn.get("yaw_deg", 0.0))),
    )


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load a schema-1 experiment config with the plan, reference set and
    as-built scene it names; relative paths resolve against the config
    file's directory. `overrides` may replace scalar knobs (seed, out_dir,
    delta, delta_prime, tau_trans, tau_rot). A malformed config (a key or
    value that `SCHEMA` does not allow among them), floorplan or
    reference set raises ConfigError naming that file."""
    return _checked(Path(path), lambda path: _parse_config(path, overrides or {}))


# Config keys spelt otherwise than the builder parameter they set.
_PARAM = {
    "mu_bg": "mu_background",
    "mu_fg": "mu_foreground",
    "rho": "corruption_rate",
    "corrupt_surfaces": "corrupt_surface_ids",
    "tau_trans_m": "tau_translation_m",
    "tau_rot_rad": "tau_rotation_rad",
}


def _spec(build, obj: dict, special: tuple[str, ...] = (), **fixed):
    """`build(**fixed, **params)` with the parameters that config section
    `obj` sets, bar its `special` keys, which are the caller's to read; a
    parameter it omits keeps `build`'s own default."""
    return build(**fixed, **{_PARAM.get(k, k): v for k, v in obj.items() if k not in special})


def _parse_config(path: Path, overrides: dict) -> ExperimentConfig:
    doc = _load(path, "config")
    if doc.get("schema") != 1:
        raise ConfigError(f"{path}: field 'schema' must be 1")
    base = path.parent
    lidar_doc = doc.get("lidar", {})
    rings = np.linspace(
        lidar_doc.get("elevation_min_deg", -15.0),
        lidar_doc.get("elevation_max_deg", 15.0),
        lidar_doc.get("rings", 16),
    )
    lidar = _spec(
        LidarSpec, lidar_doc, ("rings", "elevation_min_deg", "elevation_max_deg"),
        ring_elevations_deg=tuple(rings),
    )
    cameras = _spec(default_camera_rig, doc.get("cameras", {}))
    if not cameras:
        raise ValueError("cameras: count: expected an integer >= 1")
    oracle_doc = doc.get("density_oracle", {})
    if oracle_doc.get("corrupt_surfaces") == []:  # as when absent: every building surface
        oracle_doc = {**oracle_doc, "corrupt_surfaces": None}
    oracle = _spec(DensityOracleParams, oracle_doc)
    fusion_doc = doc.get("fusion", {})
    fusion = _spec(FusionConfig, fusion_doc, ("delta", "delta_prime"))
    delta = float(overrides.get("delta", fusion_doc.get("delta", 0.5)))
    delta_prime = float(overrides.get("delta_prime", fusion_doc.get("delta_prime", 0.1)))
    icp_doc = doc.get("icp", {})
    sel_doc = dict(doc.get("selective", {}))
    for name, key in (("tau_trans", "tau_trans_m"), ("tau_rot", "tau_rot_rad")):
        if name in overrides:
            sel_doc[key] = overrides[name]
    # the selective stage may override solver knobs (tighter gate etc.)
    selective = _spec(
        SelectiveConfig, sel_doc, ("icp",),
        full_icp=_spec(IcpConfig, icp_doc),
        selective_icp=_spec(IcpConfig, {**icp_doc, **sel_doc.get("icp", {})}),
    )
    plan = _checked(base / doc["floorplan"], lambda p: extrude_floorplan(load_floorplan(p)))
    references = _checked(
        base / doc["references"],
        lambda p: validate_reference_set(plan, load_reference_set(p)),
    )
    plan.subset(oracle.corrupt_surface_ids or ())  # raises on an unknown id
    deviations = tuple(
        Deviation(surface_ids=tuple(d["surfaces"]), offset=_pose_from_obj(d, f"deviation[{i}]"))
        for i, d in enumerate(doc.get("deviation", []))
    )
    scene = Scene(
        as_built=apply_deviation(plan, deviations),
        clutter=tuple(_clutter_surface(d) for d in doc.get("clutter", [])),
        actors=tuple(
            Actor(surface=_clutter_surface(d), velocity=tuple(d.get("velocity", (0.0, 0.0, 0.0))))
            for d in doc.get("actors", [])
        ),
    )
    robot_pose = _pose_from_obj(doc["robot_pose"], "robot_pose")
    initial_pose = (
        _pose_from_obj(doc["initial_pose"], "initial_pose")
        if "initial_pose" in doc
        else robot_pose
    )
    prism = _spec(PrismSpec, doc.get("prism", {}))
    map_density = float(doc.get("map_density_per_m2", 400.0))
    if not map_density > 0.0:
        raise ValueError("map_density_per_m2: expected a finite number > 0")
    seed = overrides.get("seed", doc.get("seed", 0))
    if seed < 0:
        raise ValueError("seed: expected an integer >= 0")
    return ExperimentConfig(
        plan=plan,
        references=references,
        scene=scene,
        lidar=lidar,
        cameras=cameras,
        prism=prism,
        oracle=oracle,
        fusion=fusion,
        delta=delta,
        delta_prime=delta_prime,
        selective=selective,
        map_density_per_m2=map_density,
        robot_pose=robot_pose,
        initial_pose=initial_pose,
        n_scans=doc.get("n_scans", 300),
        n_executions=doc.get("n_executions", 3),
        seed=int(seed),
        out_dir=Path(overrides.get("out_dir", base / doc.get("out_dir", "out"))),
        scan_period_s=float(doc.get("scan_period_s", 0.2)),
    )


@dataclass(frozen=True)
class SceneBundle:
    """The as-built scene and the nearest-neighbor maps of the as-planned
    model (all surfaces, and the reference surfaces alone)."""

    scene: Scene
    full_map: MapIndex
    ref_map: MapIndex


def assemble_scene(cfg: ExperimentConfig) -> SceneBundle:
    """Sample the config's as-planned model and index the full and the
    reference map."""
    cloud = sample_model(cfg.plan, cfg.map_density_per_m2, seed=cfg.seed)
    ref_map = MapIndex(cloud.subset(cfg.references.surface_ids))
    return SceneBundle(cfg.scene, MapIndex(cloud), ref_map)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def build_scene_files(cfg: ExperimentConfig) -> list[Path]:
    """Write as-planned, as-built, and reference meshes; returns the paths."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "as_planned.obj", out / "as_built.obj", out / "references.obj"]
    save_model(cfg.plan, paths[0])
    save_model(cfg.scene.as_built, paths[1])
    save_model(cfg.plan.subset(cfg.references.surface_ids), paths[2])
    return paths


def scene_inventory(cfg: ExperimentConfig) -> list[str]:
    lines = [f"{'surface':<16} {'triangles':>9} {'area_m2':>9} {'reference':>9}"]
    for s in cfg.plan.surfaces:
        is_ref = "yes" if s.id in cfg.references.surface_ids else ""
        lines.append(f"{s.id:<16} {len(s.triangles):>9d} {s.area:>9.2f} {is_ref:>9}")
    return lines


def fuse_scan(scan: Scan, images: Sequence[DensityImage], cfg: ExperimentConfig) -> Scan:
    """The scan's points that a rig camera sees, with the density of their
    pixels fused in; `images` holds one image per camera of `cfg.cameras`,
    in rig order."""
    triples = [(img, cam, cam.extrinsic) for img, cam in zip(images, cfg.cameras)]
    return fuse_densities(scan, triples, cfg.fusion)[0]


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def localize_scan(
    scan: Scan,
    images: Sequence[DensityImage] | None,
    bundle: SceneBundle,
    cfg: ExperimentConfig,
    init: RigidTransform,
    methods: Sequence[tuple[str, str]],
    worker: Executor | None = None,
) -> dict[tuple[str, str], LocalizationResult]:
    """Localize one LiDAR scan from `init` under every requested method.

    Scan variant `full` localizes the scan as given. `filtered` and
    `weighted` localize it with `images`, one per rig camera in rig order,
    fused in (once for both), or as given when `images` is None or empty:
    it must then carry densities. Each variant X runs one localization:
    selective × X when requested, else full × X, selective first; full × X
    is `conclude` of the selective run's first stage alone. With a `worker`
    and more than one localization, the first runs on the worker while this
    thread runs the others; each only reads the scans and the maps, so the
    results equal a sequential run. Returns the result of every requested
    method (and of full × X wherever selective × X ran), by method."""
    runs: list[tuple[str, str]] = []
    for method in sorted(methods, key=lambda m: m[0] != "selective"):
        if method not in runs and ("selective", method[1]) not in runs:
            runs.append(method)
    fused = scan
    if images and any(m[1] != "full" for m in runs):
        fused = fuse_scan(scan, images, cfg)
    jobs = [
        (scan if m[1] == "full" else fused, bundle.full_map, bundle.ref_map, init, m)
        for m in runs
    ]
    knobs = {"delta": cfg.delta, "delta_prime": cfg.delta_prime, "cfg": cfg.selective}
    if worker is not None and len(jobs) > 1:
        ahead = worker.submit(localize, *jobs[0], **knobs)
        rest = [localize(*job, **knobs) for job in jobs[1:]]
        done = [ahead.result(), *rest]
    else:
        done = [localize(*job, **knobs) for job in jobs]
    results = dict(zip(runs, done))
    for (icp, variant), res in zip(runs, done):
        if icp == "selective":
            results[("full", variant)] = conclude(res.stages[:1], cfg.selective)
    return results


def run_execution(
    bundle: SceneBundle,
    cfg: ExperimentConfig,
    execution: int,
    methods: Sequence[tuple[str, str]] = METHOD_MATRIX,
) -> dict[tuple[str, str], list[TrialRecord]]:
    """Simulate one execution's trial sequence and localize each frame under
    every requested method (`localize_scan`) before simulating the next.
    Trial seeds are `seed + execution * n_scans + trial`.

    On more than one usable CPU, a frame's first localization runs on one
    worker thread while this thread runs the others, so the records equal a
    sequential run. The worker is joined before returning, also when a
    localization raises."""
    frames = iter_trial_sequence(
        bundle.scene, cfg.robot_pose, cfg.n_scans, cfg.lidar, cfg.cameras, cfg.prism,
        cfg.oracle, seed=cfg.seed + execution * cfg.n_scans, period_s=cfg.scan_period_s,
    )
    records: dict[tuple[str, str], list[TrialRecord]] = {m: [] for m in methods}
    with ThreadPoolExecutor(max_workers=1) as pool:  # starts a thread on first submit
        worker = pool if _usable_cpus() > 1 else None
        for frame in frames:
            results = localize_scan(
                frame.scan, frame.images, bundle, cfg, cfg.initial_pose, methods, worker
            )
            for method in methods:
                result = results[method]
                est = prism_position(result.transform, cfg.prism) if result.localized else None
                records[method].append(
                    TrialRecord(frame.index, result, frame.pose, frame.prism, est)
                )
    return records


def run_matrix(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Run the full 2x3 method matrix, averaging over executions.

    Writes `report.csv` (six method rows in fixed order) and `trials.jsonl`
    (one record per execution x method x scan). Returns both paths.
    """
    bundle = assemble_scene(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    jsonl_path = out / "trials.jsonl"
    per_method_reports: dict[tuple[str, str], list[MetricsReport]] = {
        m: [] for m in METHOD_MATRIX
    }
    with open(jsonl_path, "w") as log:
        for execution in range(cfg.n_executions):
            records = run_execution(bundle, cfg, execution)
            for method in METHOD_MATRIX:
                per_method_reports[method].append(compute_report(records[method]))
                for rec in records[method]:
                    entry = result_record(rec.result, *method)
                    entry["execution"] = execution
                    entry["scan_index"] = rec.scan_index
                    log.write(json.dumps(entry) + "\n")
    rows = [
        (icp, scan, average_executions(per_method_reports[(icp, scan)]))
        for icp, scan in METHOD_MATRIX
    ]
    write_report_csv(rows, csv_path)
    return csv_path, jsonl_path


def localize_once(
    cfg: ExperimentConfig,
    scan: Scan,
    images: Sequence[DensityImage],
    init: RigidTransform,
    method: tuple[str, str],
) -> LocalizationResult:
    """Single-shot localization of an externally supplied scan, on the
    config's maps, as `run_execution` localizes a frame (`localize_scan`):
    `full` uses every point of the scan; `filtered` and `weighted` fuse the
    density images, one per rig camera in rig order, into the scan first, or
    without images need a scan that already carries densities. The image
    count is checked before any map is built."""
    if images and len(images) != len(cfg.cameras):
        raise ValueError(f"got {len(images)} density images for a {len(cfg.cameras)}-camera rig")
    return localize_scan(scan, images, assemble_scene(cfg), cfg, init, [method])[method]
