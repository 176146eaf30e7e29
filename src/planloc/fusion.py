"""Project density images into LiDAR scans and derive per-point ICP weights.

Two weighting schemes:
  * binary: w = 1 where density >= delta, points below are dropped
  * linear: w = max(0, a * density - delta') with a = (1 + delta') / max
               density, so the best point always gets weight exactly 1
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import RigidTransform, invert
from .sensor_sim import CameraSpec, DensityImage, Scan

COMBINE_RULES = ("max", "first_hit")


class FusionError(ValueError):
    """The scan's densities cannot be weighted: an input error."""


class MissingDensitiesError(FusionError):
    """Weighting requested on a scan without fused densities."""


class DegenerateDensitiesError(FusionError):
    """Linear weighting needs at least one strictly positive density."""


@dataclass(frozen=True)
class FusionConfig:
    """How scores from multiple covering cameras are combined."""

    rule: str = "max"

    def __post_init__(self):
        if self.rule not in COMBINE_RULES:
            raise ValueError(f"rule must be one of {COMBINE_RULES}")


def _project(points: np.ndarray, spec: CameraSpec, camera_pose: RigidTransform):
    """Pixel indices of points under one camera; nearest pixel.

    Returns (covered (N,), iu (N,), iv (N,)). `camera_pose` maps camera
    coordinates into the scan frame.
    """
    cam_from_scan = invert(camera_pose)
    p = cam_from_scan.apply(points)
    z = p[:, 2]
    in_front = z > 1e-9
    zsafe = np.where(in_front, z, 1.0)
    iu = np.rint(spec.fx * p[:, 0] / zsafe + spec.cx).astype(np.int64)
    iv = np.rint(spec.fy * p[:, 1] / zsafe + spec.cy).astype(np.int64)
    covered = in_front & (iu >= 0) & (iu < spec.width) & (iv >= 0) & (iv < spec.height)
    return covered, iu, iv


def check_image_size(image: DensityImage, spec: CameraSpec) -> None:
    """Refuse an image whose pixel grid is not its camera's."""
    h, w = image.values.shape
    if (w, h) != (spec.width, spec.height):
        sizes = f"{w} x {h} pixels, its camera {spec.width} x {spec.height}"
        raise ValueError(f"density image is {sizes}")


def fuse_densities(
    scan: Scan,
    images: Sequence[tuple[DensityImage, CameraSpec, RigidTransform]],
    cfg: FusionConfig = FusionConfig(),
) -> tuple[Scan, int]:
    """Assign each scan point the density of its pixel in the covering cameras.

    `images` holds (density image, camera spec, camera pose) triples, with the
    pose mapping camera coordinates into the scan frame (normally the mounted
    extrinsic). Points seen by no camera are removed; the removed count is
    returned alongside the fused scan.
    """
    if not images:
        raise ValueError("fuse_densities needs at least one image")
    points = scan.points
    n = len(points)
    covered_any = np.zeros(n, dtype=bool)
    fused = np.full(n, -np.inf)
    for image, spec, camera_pose in images:
        check_image_size(image, spec)
        covered, iu, iv = _project(points, spec, camera_pose)
        idx = np.flatnonzero(covered)
        d = image.values[iv[idx], iu[idx]]
        if cfg.rule == "max":
            fused[idx] = np.maximum(fused[idx], d)
        else:  # first_hit: earlier cameras win
            first = ~covered_any[idx]
            fused[idx[first]] = d[first]
        covered_any |= covered
    kept = covered_any
    removed = int(n - kept.sum())
    return Scan(points=points[kept], densities=fused[kept]), removed


def weights_binary(scan: Scan, delta: float = 0.5) -> Scan:
    """Hard segmentation: keep points with density >= delta at weight 1.

    Points below the threshold are dropped from the scan entirely, so the
    output weight array is all ones. Densities lie in [0, 1], and so must
    delta.
    """
    if not 0 <= delta <= 1:
        raise FusionError("delta must lie in [0, 1]")
    if scan.densities is None:
        raise MissingDensitiesError("binary weighting needs fused densities")
    keep = scan.densities >= delta
    return Scan(
        points=scan.points[keep],
        densities=scan.densities[keep],
        weights=np.ones(int(keep.sum())),
    )


def weights_linear(scan: Scan, delta_prime: float = 0.1) -> Scan:
    """Continuous weighting: w = max(0, a * d - delta') with the
    normalization a = (1 + delta') / max(d), so max(w) == 1 exactly and
    w == 0 exactly for d <= delta' * max(d) / (1 + delta') (within 1e-15 max(d)).

    All points are retained; low-density points just lose influence.
    """
    if not delta_prime >= 0:
        raise FusionError("delta_prime must be >= 0")
    if scan.densities is None:
        raise MissingDensitiesError("linear weighting needs fused densities")
    if len(scan) == 0:
        raise DegenerateDensitiesError("cannot normalize an empty scan")
    d_max = float(scan.densities.max())
    if d_max <= 0:
        raise DegenerateDensitiesError("max density must be > 0 to normalize")
    a = (1.0 + delta_prime) / d_max
    w = np.maximum(0.0, a * scan.densities - delta_prime)
    # at the cutoff itself a * d - delta' rounds to a few ulp instead of 0
    cutoff = delta_prime * d_max / (1.0 + delta_prime)
    w[scan.densities <= cutoff + 1e-15 * d_max] = 0.0
    w[scan.densities == d_max] = 1.0  # exact unit weight at the maximum
    return Scan(points=scan.points, densities=scan.densities, weights=w)
