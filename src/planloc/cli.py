"""Command-line entry points: build-scene, run-matrix, localize-once.

Exit codes: 0 success (localize-once: pose accepted), 1 localization failed,
2 input/configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import experiment
from .experiment import ConfigError, load_config
from .fusion import check_image_size
from .model import ModelError
from .registration import ICP_METHODS, SCAN_METHODS, result_record
from .sensor_sim import read_density_pgm, read_scan_csv


def _finite(text: str) -> float:
    """The value of a number flag, which must be finite, as the config's are."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


# Config overrides, by the `load_config` key each sets: flag, type, help.
OVERRIDES = {
    "seed": ("--seed", int, "override the master seed"),
    "out_dir": ("--out", str, "override the output directory"),
    "delta": ("--delta", _finite, "binary density threshold"),
    "delta_prime": ("--delta-prime", _finite, "linear weighting threshold"),
    "tau_trans": ("--tau-trans", _finite, "rejection threshold, meters"),
    "tau_rot": ("--tau-rot", _finite, "rejection threshold, radians"),
}


def _add_config(parser: argparse.ArgumentParser, *overrides: str) -> None:
    """`--config` plus the override flags of `overrides` (keys of OVERRIDES)."""
    parser.add_argument("--config", required=True, help="experiment config JSON")
    for key in overrides:
        flag, kind, text = OVERRIDES[key]
        parser.add_argument(flag, dest=key, type=kind, help=text)


def _overrides(args: argparse.Namespace) -> dict:
    return {k: v for k in OVERRIDES if (v := getattr(args, k, None)) is not None}


def cmd_build_scene(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    paths = experiment.build_scene_files(cfg)
    for line in experiment.scene_inventory(cfg):
        print(line)
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_run_matrix(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    csv_path, jsonl_path = experiment.run_matrix(cfg)
    print(f"wrote {csv_path}")
    print(f"wrote {jsonl_path}")
    return 0


def cmd_localize_once(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    scan = read_scan_csv(args.scan)
    paths = args.image or []
    images = [read_density_pgm(p) for p in paths]
    for path, image, cam in zip(paths, images, cfg.cameras):  # checked for every variant
        try:
            check_image_size(image, cam)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    init = experiment.load_pose(args.init_pose) if args.init_pose else cfg.initial_pose
    result = experiment.localize_once(
        cfg, scan, images, init, (args.icp, args.scan_variant)
    )
    print(json.dumps(result_record(result, args.icp, args.scan_variant), indent=2))
    return 0 if result.localized else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planloc",
        description="Selective weighted point-to-plane localization in building models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-scene", help="extrude and write scene meshes")
    _add_config(p_build, "out_dir")
    p_build.set_defaults(func=cmd_build_scene)

    p_run = sub.add_parser("run-matrix", help="evaluate all six method combinations")
    _add_config(p_run, *OVERRIDES)
    p_run.set_defaults(func=cmd_run_matrix)

    p_once = sub.add_parser("localize-once", help="localize one scan file")
    _add_config(p_once, "seed", "delta", "delta_prime", "tau_trans", "tau_rot")
    p_once.add_argument(
        "--scan", required=True, help="scan CSV, x,y,z,class or fused x,y,z,d,w"
    )
    p_once.add_argument(
        "--image", action="append", help="density PGM, one per rig camera, in rig order"
    )
    p_once.add_argument("--init-pose", help="JSON pose file ({r,t} or translation/yaw_deg)")
    p_once.add_argument("--icp", choices=ICP_METHODS, default="selective")
    p_once.add_argument("--scan-variant", choices=SCAN_METHODS, default="filtered")
    p_once.set_defaults(func=cmd_localize_once)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ModelError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
