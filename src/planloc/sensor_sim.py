"""Synthetic sensing: LiDAR raycasting, density-image rendering, prism
ground truth, and stationary trial sequences over a scene with clutter and
moving actors.

Every sensor cast is its static hits (building, clutter) merged with its
actor hits (`_Cast`); a sequence casts each sensor's static scene once.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .geometry import RigidTransform, compose
from .model import BuildingModel, Surface

POINT_CLASSES = ("building", "clutter", "actor")

_RAY_EPS = 1e-9
_CHUNK = 2048
# Raycast broad phase, see `_raycast`. A hit the kernel reports lies within a
# hit margin of its triangle: a fraction of its longest edge plus a floor, far
# past the kernel's 1e-12 barycentric tolerance and its rounding.
_HIT_MARGIN_REL, _HIT_MARGIN_M = 1e-6, 1e-9
_FACE_AXES = np.repeat([[0, 1, 2], [1, 0, 2], [2, 0, 1]], 2, axis=0)  # per face: w, b, c
_CELL = 0.25  # side of a square ray-group cell on a face plane
# rays a group holds at least: a smaller group's cull saves less than the
# fixed numpy cost of one more kernel call
_GROUP_RAYS = 256


@dataclass(frozen=True)
class LidarSpec:
    """Spinning multi-ring LiDAR model; frame coincides with the robot body."""

    ring_elevations_deg: tuple[float, ...] = tuple(np.linspace(-15.0, 15.0, 16))
    azimuth_step_deg: float = 0.4
    max_range_m: float = 50.0
    range_noise_m: float = 0.01

    def __post_init__(self):
        if len(self.ring_elevations_deg) < 1:
            raise ValueError("need at least one ring")
        if self.max_range_m <= 0 or self.azimuth_step_deg <= 0:
            raise ValueError("max range and azimuth step must be > 0")
        if self.range_noise_m < 0:
            raise ValueError("range noise must be >= 0")
        object.__setattr__(
            self, "ring_elevations_deg", tuple(float(e) for e in self.ring_elevations_deg)
        )

    def ray_directions(self) -> np.ndarray:
        """Unit directions in the sensor frame, ring-major, shape (K, 3)."""
        az = np.deg2rad(np.arange(0.0, 360.0, self.azimuth_step_deg))
        el = np.deg2rad(np.asarray(self.ring_elevations_deg))
        cos_el, sin_el = np.cos(el), np.sin(el)
        dirs = np.empty((len(el) * len(az), 3))
        for i in range(len(el)):
            block = slice(i * len(az), (i + 1) * len(az))
            dirs[block, 0] = cos_el[i] * np.cos(az)
            dirs[block, 1] = cos_el[i] * np.sin(az)
            dirs[block, 2] = sin_el[i]
        return dirs


@dataclass(frozen=True)
class CameraSpec:
    """Pinhole camera: +z optical axis, +x image right, +y image down."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    extrinsic: RigidTransform  # body <- camera

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be > 0")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def default_camera_rig(
    count: int = 3,
    width: int = 160,
    height: int = 120,
    hfov_deg: float = 110.0,
    mount=(0.0, 0.0, 0.25),
) -> tuple[CameraSpec, ...]:
    """Evenly yaw-spaced cameras (0, +120, -120 degrees for the default three)
    giving near-full azimuth coverage around the robot.
    """
    if not 0 < hfov_deg < 180:
        raise ValueError("hfov_deg must lie strictly between 0 and 180")
    for name, size in (("width", width), ("height", height)):
        if not size >= 1:
            raise ValueError(f"camera {name} must be >= 1 pixel, got {size}")
    f = (width / 2.0) / np.tan(np.deg2rad(hfov_deg) / 2.0)
    # camera axes in body coordinates at yaw 0: optical axis along +x(body)
    base = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    cams = []
    for i in range(count):
        yaw = 2.0 * np.pi * i / count
        c, s = np.cos(yaw), np.sin(yaw)
        rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        cams.append(
            CameraSpec(
                fx=f,
                fy=f,
                cx=(width - 1) / 2.0,
                cy=(height - 1) / 2.0,
                width=width,
                height=height,
                extrinsic=RigidTransform(rz @ base, np.asarray(mount, dtype=np.float64)),
            )
        )
    return tuple(cams)


@dataclass(frozen=True)
class PrismSpec:
    """Survey-prism mounting offset in the robot body frame."""

    offset: np.ndarray = (0.0, 0.0, 0.3)  # (3,) meters

    def __post_init__(self):
        off = np.array(self.offset, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(off)):
            raise ValueError("prism offset must be finite")
        off.flags.writeable = False
        object.__setattr__(self, "offset", off)


@dataclass(frozen=True)
class Actor:
    """A surface drifting at constant velocity (m/s) from its base placement."""

    surface: Surface
    velocity: tuple[float, float, float]

    def at(self, time_s: float) -> Surface:
        v = np.asarray(self.velocity, dtype=np.float64)
        return self.surface.transformed(RigidTransform(np.eye(3), v * time_s))


@dataclass(frozen=True)
class Scene:
    """As-built world: the (possibly deviated) building plus unmodeled extras."""

    as_built: BuildingModel
    clutter: tuple[Surface, ...] = ()
    actors: tuple[Actor, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "clutter", tuple(self.clutter))
        object.__setattr__(self, "actors", tuple(self.actors))
        building = set(self.as_built.surface_ids)
        extras = [s.id for s in self.clutter] + [a.surface.id for a in self.actors]
        if len(set(extras)) != len(extras) or building & set(extras):
            raise ValueError("clutter/actor ids must be unique and disjoint from building ids")


@dataclass(frozen=True)
class Scan:
    """One LiDAR sweep in the sensor frame with optional per-point data:
    fused densities and ICP weights in [0, 1], and the simulator's
    ground-truth classes."""

    points: np.ndarray  # (N, 3) sensor frame
    densities: np.ndarray | None = None  # (N,) in [0, 1]
    weights: np.ndarray | None = None  # (N,) in [0, 1]
    classes: np.ndarray | None = None  # (N,) strings from POINT_CLASSES

    def __post_init__(self):
        # contiguous copies, not views into the rows of a parsed CSV
        pts = np.ascontiguousarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        for name, dtype in (("densities", np.float64), ("weights", np.float64), ("classes", str)):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.ascontiguousarray(arr, dtype=dtype).reshape(-1)
            if len(arr) != len(pts):
                raise ValueError(f"{name} length must match points")
            # NaN lies in no interval
            if dtype is np.float64 and not np.all((arr >= 0) & (arr <= 1)):
                raise ValueError(f"{name} must lie in [0, 1]")
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class DensityImage:
    """Per-pixel structure score in [0, 1]; a rendered image also carries its
    z-depth buffer (inf where the pixel's ray hit nothing), which PGM files
    do not store."""

    values: np.ndarray  # (h, w) float in [0, 1]
    depth: np.ndarray | None = None  # (h, w) z-depth, inf on miss

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("density image must be 2-D")
        if vals.size == 0:
            raise ValueError(f"density image is empty ({vals.shape[1]} x {vals.shape[0]} pixels)")
        if not np.all(np.isfinite(vals)) or vals.min() < 0 or vals.max() > 1:
            raise ValueError("density values must be finite and within [0, 1]")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class DensityOracleParams:
    """Ground-truth-driven stand-in for a learned structure/clutter scorer.

    Building hits draw from N(mu_background, sigma), everything else from
    N(mu_foreground, sigma), clamped to [0, 1]. A fraction `corruption_rate`
    of building pixels is resampled from the foreground distribution to mimic
    scorer mistakes; `corrupt_surface_ids` restricts that corruption to the
    pixels of specific surfaces.
    """

    mu_background: float = 0.8
    mu_foreground: float = 0.2
    sigma: float = 0.1
    corruption_rate: float = 0.05
    corrupt_surface_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.sigma < 0 or not (0 <= self.corruption_rate <= 1):
            raise ValueError("sigma must be >= 0 and corruption rate within [0, 1]")
        if self.corrupt_surface_ids is not None:
            object.__setattr__(
                self, "corrupt_surface_ids", tuple(self.corrupt_surface_ids)
            )


@dataclass(frozen=True)
class TrialFrame:
    """One simulated timestep: scan, per-camera density images, ground truth."""

    index: int
    scan: Scan
    images: tuple[DensityImage, ...]
    pose: RigidTransform
    prism: np.ndarray  # (3,) ground-truth prism position


# ---------------------------------------------------------------------------
# Raycasting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RayGroups:
    """Rays of one origin in groups for `_raycast`'s cull (`_ray_groups`):
    `rays` (R,) the indices of the nonzero rays in group order, `starts`
    (G,) where each group starts in `rays`, and per group the four corner
    rays `corner` (G, 4, 3) and the four inward side normals `side`
    (G, 4, 3) of the cone that holds its rays."""

    rays: np.ndarray
    starts: np.ndarray
    corner: np.ndarray
    side: np.ndarray


def _ray_groups(dirs: np.ndarray) -> _RayGroups:
    """Group rays (K, 3) for `_raycast`; the groups depend on the directions
    alone, so one grouping serves every cast from a fixed origin.

    Each ray belongs to the cube face of its largest-magnitude component
    (depth w along it, lateral components b and c), and rays are grouped by
    square cells of their face's plane w = 1 (`_cell_groups`), so a group's
    rays lie in the cone from the origin over the box of their (b, c) / w.
    Side normals and corner rays are exact in the box's bounds, so a box of
    zero width needs no care. Rays of zero length belong to no group.
    """
    mag = np.abs(dirs)
    rays = np.flatnonzero(mag.max(axis=1) > 0)
    major = np.argmax(mag[rays], axis=1)
    depth = np.take_along_axis(dirs[rays], major[:, None], axis=1)
    face = 2 * major + (depth[:, 0] < 0)
    coords = np.take_along_axis(dirs[rays], _FACE_AXES[2 * major, 1:], axis=1) / np.abs(depth)
    order, starts = _cell_groups(face, coords)
    rays, face, coords = rays[order], face[order][starts], coords[order]
    lo, hi = np.minimum.reduceat(coords, starts), np.maximum.reduceat(coords, starts)
    # per group (G) the cone's four corner rays and four inward side normals
    # in world axes, where w = sign * x[axis] and (b, c) = x[lateral]
    n = len(starts)
    groups, sides = np.arange(n)[:, None, None], np.arange(4)[:, None]
    axis, lateral = _FACE_AXES[face, None, :1], _FACE_AXES[face, None, 1:]
    sign = (1.0 - 2.0 * (face % 2))[:, None, None]
    corner = np.zeros((n, 4, 3))
    corner[groups, sides, axis] = sign
    corner[groups, sides, lateral] = np.stack([lo, hi], 1)[:, [[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1]]
    side = np.zeros((n, 4, 3))  # b >= lo_b w, b <= hi_b w, c >= lo_c w, c <= hi_c w
    side[groups, sides, lateral] = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    bound = np.stack([-lo[:, 0], hi[:, 0], -lo[:, 1], hi[:, 1]], axis=1)
    side[groups, sides, axis] = sign * bound[..., None]
    return _RayGroups(rays.astype(np.int32), starts, corner, side)


def _raycast(origin: np.ndarray, dirs: np.ndarray, triangles: np.ndarray, groups: _RayGroups):
    """Nearest-hit distances of rays from one origin against a triangle soup,
    cast over `groups` (`_ray_groups(dirs)`): rays in no group miss.

    Returns (t (K,), tri_index (K,)); t is inf and tri_index -1 on miss; of
    equally near hits the lowest triangle index wins.

    A group tests (Moller-Trumbore) every triangle bar those that one of five
    planes through the origin parts from its cone by more than the triangle's
    hit margin m (`_HIT_MARGIN_*`): a side plane of the cone, with all three
    vertices outside it, or the plane parallel to the triangle's, with every
    corner ray of the cone on its other side. The triangle and the cone are
    the convex hulls of those vertices and rays, so such a plane parts them
    by more than m; a hit the kernel reports lies in the cone, as its ray
    does, and within m of its triangle, so the cull drops no hit and results
    equal testing every pair, bit for bit. Rounding in the margins is a few
    ulps of the coordinates about the origin, ~1e-11 m within 1e4 m and
    ~1e-10 m within 1e5 m, well below the 1e-9 m floor of m.
    """
    best_t = np.full(len(dirs), np.inf)
    best_tri = np.full(len(dirs), -1, dtype=np.int64)
    if len(triangles) == 0:
        return best_t, best_tri
    rays, starts, corner, side = groups.rays, groups.starts, groups.corner, groups.side
    if len(starts) == 0:
        return best_t, best_tri
    v0 = triangles[:, 0]
    e1 = triangles[:, 1] - v0
    e2 = triangles[:, 2] - v0
    tvec = origin - v0  # (M, 3)
    qvec = np.cross(tvec, e1)  # (M, 3)
    t_num = np.einsum("mj,mj->m", e2, qvec)

    n = len(starts)
    rel = triangles - origin  # (M, 3, 3) vertices about the origin
    edge = np.linalg.norm(triangles - np.roll(triangles, 1, axis=1), axis=2).max(axis=1)
    margin = (_HIT_MARGIN_REL * edge + _HIT_MARGIN_M)[:, None]
    outside = (rel @ side.reshape(-1, 3).T).max(axis=1)  # (M, 4G)
    skip = (outside < -margin * np.linalg.norm(side, axis=2).ravel()).reshape(-1, n, 4).any(2)
    normal = np.cross(e1, e2)
    height = np.einsum("mvj,mj->mv", rel, normal)  # (M, 3)
    reach = margin[:, 0] * np.linalg.norm(normal, axis=1)
    at_corner = (normal @ corner.reshape(-1, 3).T).reshape(-1, n, 4)
    skip |= (at_corner >= 0).all(2) & (height.max(1) < -reach)[:, None]
    skip |= (at_corner <= 0).all(2) & (height.min(1) > reach)[:, None]
    tested, ends = ~skip, [*starts[1:], len(rays)]
    for j in np.flatnonzero(tested.any(axis=0)):  # the groups whose cull kept a triangle
        kept = np.flatnonzero(tested[:, j])
        g = rays[starts[j] : ends[j]]
        d = dirs[g]  # (C, 3)
        pvec = np.cross(d[:, None, :], e2[None, kept, :])  # (C, m, 3)
        det = np.einsum("mj,cmj->cm", e1[kept], pvec)
        ok = np.abs(det) > 1e-12
        inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        u = np.einsum("mj,cmj->cm", tvec[kept], pvec) * inv_det
        ok &= (u >= -1e-12) & (u <= 1.0 + 1e-12)
        v = np.einsum("cj,mj->cm", d, qvec[kept]) * inv_det
        ok &= (v >= -1e-12) & (u + v <= 1.0 + 1e-12)
        t = t_num[kept][None, :] * inv_det
        ok &= t > _RAY_EPS
        t = np.where(ok, t, np.inf)
        tri = np.argmin(t, axis=1)
        tmin = t[np.arange(len(d)), tri]
        hit = np.isfinite(tmin)
        best_t[g] = np.where(hit, tmin, np.inf)
        best_tri[g] = np.where(hit, kept[tri], -1)
    return best_t, best_tri


def _cell_groups(face: np.ndarray, coords: np.ndarray):
    """Rays (`face` (C,), `coords` (C, 2) in [-1, 1] on that cube face)
    grouped by nonempty `_CELL` square cells, face by face in cell order:
    returns (order, starts), the rays in group order and the index in it
    where each group starts. Consecutive cells of one face are merged until a
    group holds at least `_GROUP_RAYS` rays; a group never spans two faces
    and holds at most `_CHUNK` rays."""
    n = int(np.ceil(2.0 / _CELL))
    cell = np.clip(((coords + 1.0) / _CELL).astype(np.int64), 0, n - 1)
    # serpentine order: odd rows run backwards, so consecutive cells touch
    key = (face * n + cell[:, 0]) * n + np.where(cell[:, 0] % 2, n - 1 - cell[:, 1], cell[:, 1])
    order = np.argsort(key, kind="stable")
    key, face = key[order], face[order]
    bounds = [0]
    for start in np.flatnonzero(np.diff(key)) + 1:
        if start - bounds[-1] >= _GROUP_RAYS or face[start] != face[start - 1]:
            bounds.append(start)
    bounds.append(len(order))
    starts = [np.arange(lo, hi, _CHUNK) for lo, hi in zip(bounds, bounds[1:])]
    return order, np.concatenate(starts)


class _SceneTriangles:
    """A scene's triangles for `_Cast`, static first: the building's and the
    clutter's, gathered once, then the actors', moved once per time and
    shared by every cast at that time. `codes` (indexing POINT_CLASSES) and
    `labels` (surface ids) hold one entry per triangle in that order."""

    def __init__(self, scene: Scene):
        kinds = (scene.as_built.surfaces, scene.clutter, [a.surface for a in scene.actors])
        each = [(code, s) for code, kind in enumerate(kinds) for s in kind for _ in s.triangles]
        self.codes = np.array([code for code, _ in each], dtype=np.int8)
        self.labels = np.array([s.id for _, s in each], dtype=object)
        self.static = _stack([*kinds[0], *kinds[1]])
        self.actors = scene.actors
        self.time_s = self.moved = None

    def actors_at(self, time_s: float) -> np.ndarray:
        """The actors' triangles at `time_s`, moved when the time changes."""
        if time_s != self.time_s:
            self.time_s, self.moved = time_s, _stack([actor.at(time_s) for actor in self.actors])
        return self.moved


def _stack(surfaces) -> np.ndarray:
    """The triangles (M, 3, 3) of `surfaces`, in order."""
    return np.concatenate([np.zeros((0, 3, 3)), *(s.triangles for s in surfaces)])


class _Cast:
    """One sensor's casts from a fixed origin along fixed directions.

    The first call groups the rays (`_ray_groups`) and casts the static
    triangles; every call casts the actors at its time over that grouping,
    and an actor hit replaces the static hit only where strictly nearer. The
    static triangles come first in the index, so a tie keeps the static hit,
    as `_raycast`'s lowest-index rule does, and a cast of some triangles gives
    each ray-triangle pair the same bits as a cast of all: every call returns
    what `_raycast` returns for all the scene's triangles at its time.
    """

    def __init__(self, triangles: _SceneTriangles):
        self.triangles = triangles
        self.groups = self.t = self.tri = None

    def __call__(self, origin: np.ndarray, dirs: np.ndarray, time_s: float):
        if self.groups is None:
            self.groups = _ray_groups(dirs)
            self.t, self.tri = _raycast(origin, dirs, self.triangles.static, self.groups)
        n = len(self.triangles.static)
        t, tri = _raycast(origin, dirs, self.triangles.actors_at(time_s), self.groups)
        nearer = t < self.t
        return np.where(nearer, t, self.t), np.where(nearer, tri + n, self.tri)


def raycast_scan(
    scene: Scene,
    pose: RigidTransform,
    spec: LidarSpec,
    time_s: float = 0.0,
    seed=0,
    *,
    _cast=None,
) -> Scan:
    """Simulate one LiDAR sweep from `pose` (sensor frame == body frame).

    One ray per (ring, azimuth); the nearest triangle hit within max range
    yields a point, perturbed along the ray by Gaussian range noise. Misses
    are dropped. Class labels come from the hit geometry and are never
    affected by the noise; actors are evaluated at `time_s`. The cast merges
    static and actor hits (`_Cast`): a fresh one, or a sequence's `_cast`.
    """
    rng = np.random.default_rng(seed)
    cast = _Cast(_SceneTriangles(scene)) if _cast is None else _cast
    dirs_sensor = spec.ray_directions()
    dirs_world = dirs_sensor @ pose.rotation.T
    t, tri = cast(pose.translation, dirs_world, time_s)
    hit = np.isfinite(t) & (t <= spec.max_range_m)
    ranges = t[hit]
    if spec.range_noise_m > 0:
        ranges = ranges + spec.range_noise_m * rng.standard_normal(len(ranges))
    keep = (ranges > 0) & (ranges <= spec.max_range_m)
    hit_idx = np.flatnonzero(hit)[keep]
    points = dirs_sensor[hit_idx] * ranges[keep, None]
    classes = np.array(POINT_CLASSES)[cast.triangles.codes[tri[hit_idx]]]
    return Scan(points=points, classes=classes)


def render_density_image(
    scene: Scene,
    camera_pose: RigidTransform,
    spec: CameraSpec,
    oracle: DensityOracleParams,
    time_s: float = 0.0,
    seed=0,
    *,
    _cast=None,
) -> DensityImage:
    """Render the density-score image a structure/clutter scorer would emit.

    `camera_pose` is the world pose of the camera (world <- camera). Primary
    rays classify each pixel; scores follow the oracle distributions, with a
    `corruption_rate` fraction of (optionally targeted) building pixels
    resampled from the foreground distribution. The cast, and `_cast`, are
    as in `raycast_scan`.
    """
    rng = np.random.default_rng(seed)
    cast = _Cast(_SceneTriangles(scene)) if _cast is None else _cast
    w, h = spec.width, spec.height
    u, v = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dirs_cam = np.stack(
        [(u - spec.cx) / spec.fx, (v - spec.cy) / spec.fy, np.ones_like(u)], axis=-1
    ).reshape(-1, 3)
    inv_norm = 1.0 / np.linalg.norm(dirs_cam, axis=1)
    dirs_cam_unit = dirs_cam * inv_norm[:, None]
    dirs_world = dirs_cam_unit @ camera_pose.rotation.T
    t, tri = cast(camera_pose.translation, dirs_world, time_s)
    hit = np.isfinite(t)
    pixel_code = np.full(len(t), -1, dtype=np.int8)
    pixel_code[hit] = cast.triangles.codes[tri[hit]]

    values = np.full(len(t), oracle.mu_foreground)
    building = pixel_code == 0
    foreground = hit & ~building
    values[building] = oracle.mu_background + oracle.sigma * rng.standard_normal(
        int(building.sum())
    )
    values[foreground] = oracle.mu_foreground + oracle.sigma * rng.standard_normal(
        int(foreground.sum())
    )
    if oracle.corruption_rate > 0:
        eligible = building.copy()
        if oracle.corrupt_surface_ids is not None:
            tri_targeted = np.isin(cast.triangles.labels, list(oracle.corrupt_surface_ids))
            target = np.zeros(len(t), dtype=bool)
            target[hit] = tri_targeted[tri[hit]]
            eligible &= target
        corrupt = eligible & (rng.random(len(t)) < oracle.corruption_rate)
        values[corrupt] = oracle.mu_foreground + oracle.sigma * rng.standard_normal(
            int(corrupt.sum())
        )
    values = np.clip(values, 0.0, 1.0).reshape(h, w)
    depth = np.where(hit, t * dirs_cam_unit[:, 2], np.inf).reshape(h, w)
    return DensityImage(values=values, depth=depth)


def prism_position(robot_pose: RigidTransform, prism: PrismSpec) -> np.ndarray:
    """World position of the survey prism for a given robot pose."""
    return robot_pose.apply(prism.offset)


def iter_trial_sequence(
    scene: Scene,
    robot_pose: RigidTransform,
    n_scans: int,
    lidar: LidarSpec,
    cameras: Sequence[CameraSpec],
    prism: PrismSpec,
    oracle: DensityOracleParams,
    seed: int = 0,
    period_s: float = 0.2,
) -> Iterator[TrialFrame]:
    """Simulate a stationary sequence of independent noisy scans plus images,
    one frame per step, so a caller need not hold the whole sequence.

    Trial i uses its own generator seeded with `seed + i` (splittable across
    workers); actors advance with the scan period. Bit-identical for a fixed
    seed.

    Each frame calls `raycast_scan` and `render_density_image` once per
    sensor, and its frame equals theirs called alone at its time and
    generator, bit for bit. Only the actors move: the static scene is
    gathered once and each sensor casts it once, on the first frame, while
    every frame moves the actors once and each sensor casts them (`_Cast`).
    The casts are dropped once the last frame is cast, before it is yielded.
    """
    if n_scans < 1:
        raise ValueError("n_scans must be >= 1")
    gt_prism = prism_position(robot_pose, prism)
    triangles = _SceneTriangles(scene)
    casts = [_Cast(triangles) for _ in range(1 + len(cameras))]
    for i in range(n_scans):
        rng = np.random.default_rng(seed + i)
        time_s = i * period_s
        scan = raycast_scan(scene, robot_pose, lidar, time_s=time_s, seed=rng, _cast=casts[0])
        images = tuple(
            render_density_image(
                scene, compose(robot_pose, cam.extrinsic), cam, oracle, time_s=time_s, seed=rng,
                _cast=cast,
            )
            for cam, cast in zip(cameras, casts[1:])
        )
        if i == n_scans - 1:
            casts.clear()  # free the static hits before the caller takes the last frame
        yield TrialFrame(
            index=i, scan=scan, images=images, pose=robot_pose, prism=gt_prism
        )


def generate_trial_sequence(*args, **kwargs) -> list[TrialFrame]:
    """All frames of `iter_trial_sequence(*args, **kwargs)` as a list."""
    return list(iter_trial_sequence(*args, **kwargs))


# ---------------------------------------------------------------------------
# File formats: scan CSV and 16-bit PGM density images
# ---------------------------------------------------------------------------


_SCAN_CSV_ROWS = {
    "x,y,z,class": np.dtype([("xyz", "f8", 3), ("class", object)]),
    "x,y,z,d,w": np.dtype([("xyz", "f8", 3), ("d", "f8"), ("w", "f8")]),
}


def write_scan_csv(scan: Scan, path) -> None:
    """Write `x,y,z,class` rows for a scan with classes and `x,y,z,d,w` rows
    otherwise (meters; class string or scores, missing ones written as nan).
    A scan with both classes and scores has no layout and is refused."""
    if scan.classes is not None:
        if scan.densities is not None or scan.weights is not None:
            raise ValueError("a scan CSV holds classes or densities/weights, not both")
        header, template, tails = "x,y,z,class", "%.9f,%.9f,%.9f,%s", [scan.classes]
    else:
        nan = np.full(len(scan), np.nan)
        tails = [nan if a is None else a for a in (scan.densities, scan.weights)]
        header, template = "x,y,z,d,w", "%.9f,%.9f,%.9f,%.9f,%.9f"
    rows = zip(*scan.points.T.tolist(), *(a.tolist() for a in tails))
    Path(path).write_text("\n".join([header, *(template % row for row in rows)]) + "\n")


def read_scan_csv(path) -> Scan:
    """Read a scan CSV in the layout its header names. Every number must be
    finite and every density and weight in [0, 1], bar a density or weight
    column that is nan in every row: that one reads back as None."""
    with open(path) as f:
        header, body = f.readline().strip(), f.read()
    if header not in _SCAN_CSV_ROWS:
        raise ValueError(f"{path}: expected header {' or '.join(_SCAN_CSV_ROWS)}")
    rows = np.zeros(0, dtype=_SCAN_CSV_ROWS[header])
    if body.strip():  # np.loadtxt warns on input without rows
        try:
            rows = np.loadtxt(
                io.StringIO(body), delimiter=",", dtype=rows.dtype, comments=None, ndmin=1
            )
        except ValueError as e:
            raise _scan_csv_error(path, header, body, e) from None
    if header == "x,y,z,class":
        d, w, classes = None, None, rows["class"]
    else:
        d, w = (None if np.isnan(rows[c]).all() else rows[c] for c in ("d", "w"))
        classes = None
    numbers = np.column_stack([rows["xyz"], *(a for a in (d, w) if a is not None)])
    finite = np.isfinite(numbers).all(axis=1)
    good = finite & ((numbers[:, 3:] >= 0) & (numbers[:, 3:] <= 1)).all(axis=1)
    if not good.all():
        row = np.argmin(good)
        line = [n for n, text in enumerate(body.split("\n"), start=2) if text][row]
        what = "density or weight outside [0, 1]" if finite[row] else "non-finite number"
        raise ValueError(f"{path}:{line}: {what}")
    return Scan(rows["xyz"], densities=d, weights=w, classes=classes)


def _scan_csv_error(path, header: str, body: str, error: ValueError) -> ValueError:
    """The first row of `body` that does not parse, as a `path:line:` error."""
    columns = header.split(",")
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line:  # the only lines np.loadtxt skips
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            return ValueError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(fields)}")
        try:
            [float(x) for x, c in zip(fields, columns) if c != "class"]
        except ValueError:
            return ValueError(f"{path}:{lineno}: non-numeric field")
    return ValueError(f"{path}: {error}")


def write_density_pgm(image: DensityImage, path) -> None:
    """16-bit binary PGM; score = pixel / 65535. The depth buffer is dropped."""
    quantized = np.round(image.values * 65535.0).astype(">u2")
    h, w = quantized.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(quantized.tobytes())


def read_density_pgm(path) -> DensityImage:
    data = Path(path).read_bytes()
    m = re.match(rb"P5\s+(?:#.*\s+)?(\d+)\s+(\d+)\s+(\d+)\s", data)
    if m is None:
        raise ValueError(f"{path}: not a binary PGM file")
    w, h, maxval = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if maxval != 65535:
        raise ValueError(f"{path}: expected 16-bit PGM (maxval 65535), got {maxval}")
    raw = data[m.end() :]
    expected = w * h * 2
    if len(raw) < expected:
        raise ValueError(f"{path}: truncated PGM payload")
    pixels = np.frombuffer(raw[:expected], dtype=">u2").reshape(h, w)
    try:
        return DensityImage(values=pixels.astype(np.float64) / 65535.0, depth=None)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
