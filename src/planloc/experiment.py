"""Experiment orchestration: configuration loading (with the plan, reference
set and as-built scene a config names), map building, the 2x3 (icp x scan)
method matrix over stationary trial sequences, and report emission.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
    ModelError,
    ReferenceSet,
    apply_deviation,
    extrude_floorplan,
    load_floorplan,
    load_reference_set,
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
    TrialFrame,
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


def _json_object(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"must hold a JSON object, not {type(doc).__name__}")
    return doc


def _at(where: str) -> str:
    """Message prefix naming a place in an input file; "" for its top level."""
    return f"{where}: " if where else ""


def _known_fields(obj: dict, known, where: str = "") -> None:
    """Raise on a key of `obj` not in `known`, naming it and `where`."""
    for key in obj:
        if key not in known:
            raise ValueError(f"{_at(where)}unknown field '{key}'")


_POSE_KEYS = ("translation", "yaw_deg", "quaternion")


def _pose_from_obj(obj: dict, where: str, extra: tuple[str, ...] = ()) -> RigidTransform:
    """A config pose: `translation` plus `yaw_deg` or `quaternion`; the
    `extra` keys are the caller's to read, and any other key raises."""
    if not isinstance(obj, dict):
        raise ValueError(f"{_at(where)}expected an object")
    _known_fields(obj, _POSE_KEYS + extra, where)
    translation = obj.get("translation", [0.0, 0.0, 0.0])
    if "quaternion" in obj and "yaw_deg" in obj:
        raise ValueError(f"{_at(where)}give either quaternion or yaw_deg, not both")
    if "quaternion" in obj:
        return RigidTransform.from_quat(obj["quaternion"], translation)
    yaw = np.deg2rad(float(obj.get("yaw_deg", 0.0)))
    return RigidTransform.from_rotvec([0.0, 0.0, yaw], translation)


def load_pose(path) -> RigidTransform:
    """Read a pose file: `{"r": 3x3 rows, "t": [x, y, z]}` or a config pose
    (`translation` plus `yaw_deg` or `quaternion`)."""
    return _checked(Path(path), _parse_pose)


def _parse_pose(path: Path) -> RigidTransform:
    doc = _json_object(path)
    if "r" in doc and "t" in doc:
        return RigidTransform(np.array(doc["r"]).reshape(3, 3), doc["t"])
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


def _clutter_surface(defn: dict, where: str, extra: tuple[str, ...] = ()):
    """A clutter box; the `extra` keys are the caller's to read."""
    _known_fields(defn, ("id", "center", "size", "yaw_deg") + extra, where)
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
    delta, delta_prime, tau_trans, tau_rot). A malformed config (an unknown
    key in a settings section among them), floorplan or reference set raises
    ConfigError naming that file."""
    return _checked(Path(path), lambda path: _parse_config(path, overrides or {}))


# Top-level config keys; the settings sections, poses and entries check their own.
_CONFIG_KEYS = (
    "schema", "floorplan", "references", "deviation", "clutter", "actors",
    "lidar", "cameras", "prism", "density_oracle", "fusion", "icp", "selective",
    "map_density_per_m2", "robot_pose", "initial_pose",
    "n_scans", "n_executions", "seed", "out_dir", "scan_period_s",
)

# Config keys spelt otherwise than the spec field they set, by field name.
_CONFIG_KEY = {
    "mu_background": "mu_bg",
    "mu_foreground": "mu_fg",
    "corruption_rate": "rho",
    "corrupt_surface_ids": "corrupt_surfaces",
    "tau_translation_m": "tau_trans_m",
    "tau_rotation_rad": "tau_rot_rad",
}


def _section(doc: dict, key: str, name: str | None = None) -> dict:
    """Settings section `key` of `doc`, {} when absent; a section that is
    not a JSON object raises, naming it `name` (default `key`)."""
    obj = doc.get(key, {})
    if not isinstance(obj, dict):
        raise ValueError(f"{name or key}: expected an object")
    return obj


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return type(value) in (int, float)


def _setting(obj: dict, key: str, default, where: str = ""):
    """`obj[key]`, or `default` when absent; a setting whose default is an
    int (not a bool) must be a JSON integer, and one whose default is a float
    a JSON number, else this raises naming it."""
    value = obj.get(key, default)
    if type(default) is int and type(value) is not int:
        raise ValueError(f"{_at(where)}{key}: expected an integer")
    if type(default) is float and not _is_number(value):
        raise ValueError(f"{_at(where)}{key}: expected a number")
    return value


def _velocity(obj: dict, where: str) -> tuple[float, float, float]:
    """An actor's `velocity` (m/s): 3 finite JSON numbers, zero when absent."""
    value = obj.get("velocity", [0.0, 0.0, 0.0])
    if not (
        isinstance(value, list)
        and len(value) == 3
        and all(_is_number(v) and math.isfinite(v) for v in value)
    ):
        raise ValueError(f"{where}: velocity: expected 3 numbers")
    return tuple(value)


def _spec(build, section: str, obj: dict, special: tuple[str, ...] = (), **fixed):
    """`build(**fixed, **fields)` with the fields that config section `obj`
    sets; a field it omits keeps `build`'s own default. The `special` keys
    are the caller's to read; any other key that names no field raises."""
    params = inspect.signature(build).parameters
    fields = {_CONFIG_KEY.get(name, name): name for name in params if name not in fixed}
    _known_fields(obj, (*fields, *special), section)
    values = {
        fields[k]: _setting(obj, k, params[fields[k]].default, section) for k in obj if k in fields
    }
    return build(**fixed, **values)


def _parse_config(path: Path, overrides: dict) -> ExperimentConfig:
    doc = _json_object(path)
    if doc.get("schema") != 1:
        raise ConfigError(f"{path}: field 'schema' must be 1")
    _known_fields(doc, _CONFIG_KEYS)
    base = path.parent
    lidar_doc = _section(doc, "lidar")
    rings = np.linspace(
        _setting(lidar_doc, "elevation_min_deg", -15.0, "lidar"),
        _setting(lidar_doc, "elevation_max_deg", 15.0, "lidar"),
        _setting(lidar_doc, "rings", 16, "lidar"),
    )
    lidar = _spec(
        LidarSpec, "lidar", lidar_doc, ("rings", "elevation_min_deg", "elevation_max_deg"),
        ring_elevations_deg=tuple(rings),
    )
    cameras = _spec(default_camera_rig, "cameras", _section(doc, "cameras"))
    oracle_doc = _section(doc, "density_oracle")
    if oracle_doc.get("corrupt_surfaces") == []:  # as when absent: every building surface
        oracle_doc = {**oracle_doc, "corrupt_surfaces": None}
    oracle = _spec(DensityOracleParams, "density_oracle", oracle_doc)
    fusion_doc = _section(doc, "fusion")
    fusion = _spec(FusionConfig, "fusion", fusion_doc, ("delta", "delta_prime"))
    delta = float(overrides.get("delta", _setting(fusion_doc, "delta", 0.5, "fusion")))
    delta_prime = float(
        overrides.get("delta_prime", _setting(fusion_doc, "delta_prime", 0.1, "fusion"))
    )
    icp_doc = _section(doc, "icp")
    sel_doc = dict(_section(doc, "selective"))
    for name, key in (("tau_trans", "tau_trans_m"), ("tau_rot", "tau_rot_rad")):
        if name in overrides:
            sel_doc[key] = overrides[name]
    # the selective stage may override solver knobs (tighter gate etc.)
    selective = _spec(
        SelectiveConfig, "selective", sel_doc, ("icp",),
        full_icp=_spec(IcpConfig, "icp", icp_doc),
        selective_icp=_spec(
            IcpConfig, "selective.icp", {**icp_doc, **_section(sel_doc, "icp", "selective.icp")}
        ),
    )
    plan = _checked(base / doc["floorplan"], lambda p: extrude_floorplan(load_floorplan(p)))
    references = _checked(
        base / doc["references"],
        lambda p: validate_reference_set(plan, load_reference_set(p)),
    )
    deviations = tuple(
        Deviation(
            surface_ids=tuple(d["surfaces"]),
            offset=_pose_from_obj(d, f"deviation[{i}]", ("surfaces",)),
        )
        for i, d in enumerate(doc.get("deviation", []))
    )
    scene = Scene(
        as_built=apply_deviation(plan, deviations),
        clutter=tuple(
            _clutter_surface(d, f"clutter[{i}]") for i, d in enumerate(doc.get("clutter", []))
        ),
        actors=tuple(
            Actor(
                surface=_clutter_surface(d, f"actors[{i}]", ("velocity",)),
                velocity=_velocity(d, f"actors[{i}]"),
            )
            for i, d in enumerate(doc.get("actors", []))
        ),
    )
    robot_pose = _pose_from_obj(doc["robot_pose"], "robot_pose")
    initial_pose = (
        _pose_from_obj(doc["initial_pose"], "initial_pose")
        if "initial_pose" in doc
        else robot_pose
    )
    prism = _spec(PrismSpec, "prism", _section(doc, "prism"))
    map_density = float(_setting(doc, "map_density_per_m2", 400.0))
    if not 0.0 < map_density < math.inf:
        raise ValueError("map_density_per_m2: expected a finite number > 0")
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
        n_scans=_setting(doc, "n_scans", 300),
        n_executions=_setting(doc, "n_executions", 3),
        seed=int(overrides.get("seed", _setting(doc, "seed", 0))),
        out_dir=Path(overrides.get("out_dir", base / doc.get("out_dir", "out"))),
        scan_period_s=float(_setting(doc, "scan_period_s", 0.2)),
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


def _rig_triples(images: Sequence[DensityImage], cameras: Sequence[CameraSpec]) -> list:
    """(image, camera, camera pose in the body frame) per rig camera."""
    if len(images) != len(cameras):
        raise ValueError(f"got {len(images)} density images for a {len(cameras)}-camera rig")
    return [(img, cam, cam.extrinsic) for img, cam in zip(images, cameras)]


def fuse_frame(frame: TrialFrame, cfg: ExperimentConfig) -> tuple[Scan, int]:
    """Project the frame's density images into its scan."""
    return fuse_densities(frame.scan, _rig_triples(frame.images, cfg.cameras), cfg.fusion)


def localize_frame(
    scan: Scan,
    bundle: SceneBundle,
    cfg: ExperimentConfig,
    init: RigidTransform,
    method: tuple[str, str],
) -> LocalizationResult:
    """Localize one scan against the bundle's maps with the config's
    weighting thresholds and selective settings."""
    return localize(
        scan,
        bundle.full_map,
        bundle.ref_map,
        init,
        method,
        delta=cfg.delta,
        delta_prime=cfg.delta_prime,
        cfg=cfg.selective,
    )


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def run_execution(
    bundle: SceneBundle,
    cfg: ExperimentConfig,
    execution: int,
    methods: Sequence[tuple[str, str]] = METHOD_MATRIX,
) -> dict[tuple[str, str], list[TrialRecord]]:
    """Simulate one execution's trial sequence and localize it under every
    requested method, one frame at a time. Trial seeds are `seed + execution * n_scans + trial`.
    Each scan variant X runs one localization per frame: selective × X when
    requested, else full × X; full × X is the selective run's stage 1.

    On more than one usable CPU, a frame's first localization runs on one
    worker thread while this thread runs the others; each only reads the
    frame's scans and the maps, so the records equal a sequential run. The
    worker is joined before returning, also when a localization raises."""
    frames = iter_trial_sequence(
        bundle.scene,
        cfg.robot_pose,
        cfg.n_scans,
        cfg.lidar,
        cfg.cameras,
        cfg.prism,
        cfg.oracle,
        seed=cfg.seed + execution * cfg.n_scans,
        period_s=cfg.scan_period_s,
    )
    needs_fusion = any(m[1] != "full" for m in methods)
    runs: list[tuple[str, str]] = []  # the localizations run per frame, selective first
    for method in sorted(methods, key=lambda m: m[0] != "selective"):
        if method not in runs and ("selective", method[1]) not in runs:
            runs.append(method)
    concurrent = len(runs) > 1 and _usable_cpus() > 1
    records: dict[tuple[str, str], list[TrialRecord]] = {m: [] for m in methods}
    with ThreadPoolExecutor(max_workers=1) as worker:  # starts a thread on first submit
        for frame in frames:
            fused_scan = fuse_frame(frame, cfg)[0] if needs_fusion else frame.scan
            jobs = [
                (frame.scan if m[1] == "full" else fused_scan, bundle, cfg, cfg.initial_pose, m)
                for m in runs
            ]
            if concurrent:
                ahead = worker.submit(localize_frame, *jobs[0])
                rest = [localize_frame(*job) for job in jobs[1:]]
                done = [ahead.result(), *rest]
            else:
                done = [localize_frame(*job) for job in jobs]
            results: dict[tuple[str, str], LocalizationResult] = {}
            for method, res in zip(runs, done):
                results[method] = res
                results[("full", method[1])] = LocalizationResult.from_full_icp(res.full_icp)
            for method in methods:
                result = results[method]
                est = prism_position(result.transform, cfg.prism) if result.localized else None
                records[method].append(
                    TrialRecord(
                        scan_index=frame.index,
                        result=result,
                        true_pose=frame.pose,
                        true_prism=frame.prism,
                        estimated_prism=est,
                    )
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
    """Single-shot localization of an externally supplied scan.

    When density images are given, one per rig camera in rig order, they are
    fused into the scan first; otherwise the scan must already carry
    densities if a filtered or weighted method is requested.
    """
    bundle = assemble_scene(cfg)
    if images:
        scan = fuse_densities(scan, _rig_triples(images, cfg.cameras), cfg.fusion)[0]
    return localize_frame(scan, bundle, cfg, init, method)
