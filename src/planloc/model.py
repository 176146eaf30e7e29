"""Building models: triangulated surfaces, floorplan extrusion, reference
subsets, deviation injection, point-map sampling and named-group mesh
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .geometry import RigidTransform

# Two surfaces count as parallel when |n_a . n_b| >= 1 - EPS_PARALLEL
# (about a 2.6 degree cone).
EPS_PARALLEL = 1e-3

MIN_TRIANGLE_AREA = 1e-12


class ModelError(Exception):
    """Base for building-model errors."""


class EmptyPlanError(ModelError):
    """Floorplan has no wall segments."""


class UnknownSurfaceIdError(ModelError):
    """A referenced surface id does not exist in the model."""


class InsufficientConstraintsError(ModelError):
    """Reference set lacks three pairwise non-parallel surfaces."""


@dataclass(frozen=True)
class Surface:
    """One named surface: a triangle soup whose winding defines orientation.

    The per-triangle unit normals and areas follow from the triangles and
    are derived once, here.
    """

    id: str
    triangles: np.ndarray  # (M, 3, 3): triangle, corner, xyz
    normals: np.ndarray = field(init=False)  # (M, 3) unit normals
    areas: np.ndarray = field(init=False)  # (M,) square meters

    def __post_init__(self):
        tris = np.array(self.triangles, dtype=np.float64)
        if tris.ndim != 3 or tris.shape[1:] != (3, 3) or tris.shape[0] == 0:
            raise ValueError(f"surface {self.id!r}: triangles must be (M, 3, 3), M >= 1")
        if not np.all(np.isfinite(tris)):
            raise ValueError(f"surface {self.id!r}: non-finite vertex")
        cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        norms = np.linalg.norm(cross, axis=1)
        areas = 0.5 * norms
        if np.any(areas <= MIN_TRIANGLE_AREA):
            raise ValueError(f"surface {self.id!r}: degenerate triangle (area <= 1e-12)")
        normals = cross / norms[:, None]
        for name, arr in (("triangles", tris), ("normals", normals), ("areas", areas)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def area(self) -> float:
        return float(self.areas.sum())

    def dominant_normal(self) -> np.ndarray:
        """Area-weighted mean normal, with faces first flipped into the
        hemisphere of the largest face.

        The flip matters for closed surfaces (e.g. extruded wall boxes) whose
        raw area-weighted normal sum is identically zero.
        """
        ref = self.normals[int(np.argmax(self.areas))]
        signs = np.where(self.normals @ ref >= 0, 1.0, -1.0)
        mean = ((self.normals * signs[:, None]) * self.areas[:, None]).sum(axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-12:
            raise ValueError(f"surface {self.id!r}: dominant normal undefined")
        return mean / norm

    def transformed(self, transform: RigidTransform) -> "Surface":
        """Rigidly moved copy; normals re-derived from the moved vertices."""
        moved = self.triangles.reshape(-1, 3) @ transform.rotation.T + transform.translation
        return Surface(self.id, moved.reshape(-1, 3, 3))


@dataclass(frozen=True)
class BuildingModel:
    """Collection of named surfaces in one frame (the plan origin)."""

    surfaces: tuple[Surface, ...]

    def __post_init__(self):
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        ids = [s.id for s in self.surfaces]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate surface ids in model")

    @property
    def surface_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.surfaces)

    def get(self, surface_id: str) -> Surface:
        for s in self.surfaces:
            if s.id == surface_id:
                return s
        raise UnknownSurfaceIdError(f"unknown surface id {surface_id!r}")

    def subset(self, surface_ids: Iterable[str]) -> "BuildingModel":
        wanted = list(surface_ids)
        for sid in wanted:
            self.get(sid)
        keep = tuple(s for s in self.surfaces if s.id in set(wanted))
        return BuildingModel(keep)


@dataclass(frozen=True)
class ReferenceSet:
    """Ids of the task-reference surfaces (a subset of a model)."""

    surface_ids: tuple[str, ...]

    def __post_init__(self):
        ids = tuple(self.surface_ids)
        if not ids:
            raise ValueError("reference set must be non-empty")
        object.__setattr__(self, "surface_ids", ids)


@dataclass(frozen=True)
class WallSegment:
    start: np.ndarray  # (2,) meters
    end: np.ndarray  # (2,)
    thickness: float
    id: str | None = None

    def __post_init__(self):
        start = np.array(self.start, dtype=np.float64).reshape(2)
        end = np.array(self.end, dtype=np.float64).reshape(2)
        if not (np.all(np.isfinite(start)) and np.all(np.isfinite(end))):
            raise ValueError("wall segment has non-finite endpoints")
        if self.thickness <= 0:
            raise ValueError("wall thickness must be > 0")
        if np.linalg.norm(end - start) < 1e-9:
            raise ValueError("wall segment has zero length")
        start.flags.writeable = False
        end.flags.writeable = False
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


@dataclass(frozen=True)
class Floorplan2D:
    """2D wall segments plus a floor outline, extrudable to a 3D model."""

    walls: tuple[WallSegment, ...]
    wall_height: float
    floor_outline: np.ndarray  # (K, 2) simple polygon

    def __post_init__(self):
        object.__setattr__(self, "walls", tuple(self.walls))
        if self.wall_height <= 0:
            raise ValueError("wall_height must be > 0")
        outline = np.array(self.floor_outline, dtype=np.float64)
        if outline.ndim != 2 or outline.shape[1] != 2 or outline.shape[0] < 3:
            raise ValueError("floor outline must be (K, 2) with K >= 3")
        outline.flags.writeable = False
        object.__setattr__(self, "floor_outline", outline)


@dataclass(frozen=True)
class Deviation:
    """Rigid offset applied to a group of surfaces."""

    surface_ids: tuple[str, ...]
    offset: RigidTransform

    def __post_init__(self):
        object.__setattr__(self, "surface_ids", tuple(self.surface_ids))


@dataclass(frozen=True)
class MapCloud:
    """Sampled point map with per-point normals and source surface ids."""

    points: np.ndarray  # (N, 3)
    normals: np.ndarray  # (N, 3) unit
    surface_index: np.ndarray  # (N,) index into surface_ids
    surface_ids: tuple[str, ...]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        normals = np.asarray(self.normals, dtype=np.float64)
        idx = np.asarray(self.surface_index, dtype=np.int32)
        if not (len(pts) == len(normals) == len(idx)):
            raise ValueError("map cloud arrays must have equal length")
        if len(pts) and np.max(np.abs(np.linalg.norm(normals, axis=1) - 1.0)) > 1e-9:
            raise ValueError("map cloud normals must be unit length")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "surface_index", idx)
        object.__setattr__(self, "surface_ids", tuple(self.surface_ids))

    def __len__(self) -> int:
        return len(self.points)

    def subset(self, surface_ids: Iterable[str]) -> "MapCloud":
        wanted = set(surface_ids)
        unknown = wanted - set(self.surface_ids)
        if unknown:
            raise UnknownSurfaceIdError(f"unknown surface ids {sorted(unknown)}")
        keep_idx = {i for i, sid in enumerate(self.surface_ids) if sid in wanted}
        mask = np.isin(self.surface_index, sorted(keep_idx))
        return MapCloud(
            self.points[mask],
            self.normals[mask],
            self.surface_index[mask],
            self.surface_ids,
        )


# ---------------------------------------------------------------------------
# Extrusion
# ---------------------------------------------------------------------------


def _box_triangles(center: np.ndarray, axes: np.ndarray, half_extents: np.ndarray) -> np.ndarray:
    """12 outward-wound triangles of a box given orthonormal axes (rows)."""
    tris = []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        for sign in (+1.0, -1.0):
            c = center + sign * half_extents[k] * axes[k]
            u, v = axes[i] * half_extents[i], axes[j] * half_extents[j]
            if sign < 0:  # swap in-plane axes so the winding stays outward
                u, v = v, u
            p1, p2, p3, p4 = c - u - v, c + u - v, c + u + v, c - u + v
            tris.append((p1, p2, p3))
            tris.append((p1, p3, p4))
    return np.array(tris)


def make_box_surface(surface_id: str, center, size, yaw_rad: float = 0.0) -> Surface:
    """Axis-aligned box (optionally yawed about z) as a closed surface."""
    c, s = np.cos(yaw_rad), np.sin(yaw_rad)
    axes = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    half = 0.5 * np.asarray(size, dtype=np.float64).reshape(3)
    return Surface(surface_id, _box_triangles(np.asarray(center, dtype=np.float64), axes, half))


def _polygon_area_signed(outline: np.ndarray) -> float:
    x, y = outline[:, 0], outline[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def triangulate_polygon(outline: np.ndarray) -> np.ndarray:
    """Ear-clip a simple polygon into CCW triangles, shape (K-2, 3, 2)."""
    poly = np.asarray(outline, dtype=np.float64)
    if _polygon_area_signed(poly) < 0:
        poly = poly[::-1]
    idx = list(range(len(poly)))
    tris: list[tuple[int, int, int]] = []

    def turn(p, q, r) -> float:
        """z of (q - p) x (r - p): positive when p, q, r turn left."""
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    def is_ear(a: int, b: int, c: int) -> bool:
        pa, pb, pc = poly[a], poly[b], poly[c]
        return turn(pa, pb, pc) > 1e-12 and not any(
            min(turn(pa, pb, poly[o]), turn(pb, pc, poly[o]), turn(pc, pa, poly[o])) > -1e-12
            for o in idx
            if o not in (a, b, c)
        )

    while len(idx) > 3:
        for pos in range(len(idx)):
            a, b, c = idx[pos - 1], idx[pos], idx[(pos + 1) % len(idx)]
            if is_ear(a, b, c):
                tris.append((a, b, c))
                idx.pop(pos)
                break
        else:
            raise ValueError("polygon triangulation found no ear; outline may self-intersect")
    tris.append((idx[0], idx[1], idx[2]))
    return poly[np.array(tris)]


def extrude_floorplan(plan: Floorplan2D) -> BuildingModel:
    """Extrude wall segments into closed boxes and add a planar floor at z=0.

    Each wall becomes its own surface (uniform wall height, given thickness);
    the floor covers the outline polygon with upward normals.
    """
    if not plan.walls:
        raise EmptyPlanError("floorplan has no wall segments")
    surfaces: list[Surface] = []
    for i, wall in enumerate(plan.walls):
        sid = wall.id if wall.id is not None else f"wall_{i}"
        d2 = wall.end - wall.start
        length = float(np.linalg.norm(d2))
        u = np.array([d2[0], d2[1], 0.0]) / length
        n = np.array([-u[1], u[0], 0.0])
        mid2 = 0.5 * (wall.start + wall.end)
        center = np.array([mid2[0], mid2[1], 0.5 * plan.wall_height])
        axes = np.vstack([u, n, [0.0, 0.0, 1.0]])
        half = np.array([0.5 * length, 0.5 * wall.thickness, 0.5 * plan.wall_height])
        surfaces.append(Surface(sid, _box_triangles(center, axes, half)))
    tris2d = triangulate_polygon(plan.floor_outline)
    floor_tris = np.concatenate([tris2d, np.zeros((*tris2d.shape[:2], 1))], axis=2)
    surfaces.append(Surface("floor", floor_tris))
    return BuildingModel(tuple(surfaces))


# ---------------------------------------------------------------------------
# Reference validation, sampling, deviation
# ---------------------------------------------------------------------------


def validate_reference_set(model: BuildingModel, refs: ReferenceSet) -> ReferenceSet:
    """Accept a reference set iff it can constrain all six pose dof.

    Requires three member surfaces whose dominant normals are pairwise
    non-parallel (|n_a . n_b| < 1 - EPS_PARALLEL). Returns the set unchanged
    on success.
    """
    normals = [model.get(sid).dominant_normal() for sid in refs.surface_ids]
    for trio in combinations(normals, 3):
        if all(abs(float(a @ b)) < 1.0 - EPS_PARALLEL for a, b in combinations(trio, 2)):
            return refs
    raise InsufficientConstraintsError(
        "reference set needs three pairwise non-parallel surfaces"
    )


def sample_model(model: BuildingModel, density: float, seed=0) -> MapCloud:
    """Uniformly sample every triangle at `density` points per square meter.

    Expected count per triangle is area * density; the fractional part is
    resolved with one Bernoulli draw so totals stay unbiased. Deterministic
    for a fixed seed.
    """
    if density <= 0:
        raise ValueError("sampling density must be > 0")
    rng = np.random.default_rng(seed)
    pts, nrm, sidx = [], [], []
    for si, surface in enumerate(model.surfaces):
        areas = surface.areas
        expected = areas * density
        counts = np.floor(expected).astype(np.int64)
        counts += rng.random(len(areas)) < (expected - counts)
        total = int(counts.sum())
        if total == 0:
            continue
        tri_of_point = np.repeat(np.arange(len(areas)), counts)
        u = rng.random(total)
        v = rng.random(total)
        flip = u + v > 1.0
        u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
        tris = surface.triangles[tri_of_point]
        p = tris[:, 0] + u[:, None] * (tris[:, 1] - tris[:, 0]) + v[:, None] * (
            tris[:, 2] - tris[:, 0]
        )
        pts.append(p)
        nrm.append(surface.normals[tri_of_point])
        sidx.append(np.full(total, si, dtype=np.int32))
    if not pts:
        empty = np.zeros((0, 3))
        return MapCloud(empty, empty, np.zeros(0, dtype=np.int32), model.surface_ids)
    return MapCloud(
        np.concatenate(pts),
        np.concatenate(nrm),
        np.concatenate(sidx),
        model.surface_ids,
    )


def apply_deviation(model: BuildingModel, deviations: Sequence[Deviation]) -> BuildingModel:
    """Rigidly move the listed surface groups; all others stay untouched."""
    moved: dict[str, Surface] = {s.id: s for s in model.surfaces}
    for dev in deviations:
        for sid in dev.surface_ids:
            if sid not in moved:
                raise UnknownSurfaceIdError(f"unknown surface id {sid!r}")
            moved[sid] = moved[sid].transformed(dev.offset)
    return BuildingModel(tuple(moved[s.id] for s in model.surfaces))


# ---------------------------------------------------------------------------
# Mesh output: OBJ-style text with one named group per surface
# ---------------------------------------------------------------------------


def save_model(model: BuildingModel, path) -> None:
    lines: list[str] = []
    offset = 1
    for surface in model.surfaces:
        lines.append(f"g {surface.id}")
        verts = surface.triangles.reshape(-1, 3)
        for v in verts:
            lines.append(f"v {v[0]:.9f} {v[1]:.9f} {v[2]:.9f}")
        for t in range(len(surface.triangles)):
            base = offset + 3 * t
            lines.append(f"f {base} {base + 1} {base + 2}")
        offset += len(verts)
    Path(path).write_text("\n".join(lines) + "\n")
