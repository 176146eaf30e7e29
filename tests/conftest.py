"""Shared scene builders, a pose-cost yardstick and the subprocess environment
for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from planloc import (
    Deviation,
    Floorplan2D,
    MapCloud,
    RigidTransform,
    WallSegment,
    apply_deviation,
    extrude_floorplan,
)
from planloc.registration import MapIndex, kernel_cost
from planloc.sensor_sim import Scan, Scene

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict:
    """This process's environment with the checkout's `src` first on
    PYTHONPATH, so `python -m planloc` and the demos run uninstalled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def square_room_plan(side: float = 6.0, thickness: float = 0.2, height: float = 2.5):
    """Four named walls around a square floor."""
    s = side
    return Floorplan2D(
        walls=(
            WallSegment([0, 0], [s, 0], thickness, "wall_a"),
            WallSegment([0, 0], [0, s], thickness, "wall_b"),
            WallSegment([0, s], [s, s], thickness, "wall_c"),
            WallSegment([s, 0], [s, s], thickness, "wall_d"),
        ),
        wall_height=height,
        floor_outline=np.array([[0, 0], [s, 0], [s, s], [0, s]], dtype=float),
    )


def normals_at(cloud: MapCloud, rows) -> np.ndarray:
    """Unit normals of the map points `rows`: their triangles' normals."""
    return cloud.model.triangle_normals[cloud.triangle[rows]]


def pose_to_plane_cost(
    scan: Scan,
    map_index: MapIndex,
    pose: RigidTransform,
    huber_scale_m: float = np.inf,
    max_correspondence_m: float = np.inf,
) -> float:
    """Total weighted point-to-plane cost of a pose, with re-matching: the
    ICP objective at this Huber scale and gate (under the default infinite
    scale, the squared cost), as an independent yardstick."""
    weights = scan.weights if scan.weights is not None else np.ones(len(scan))
    world = pose.apply(scan.points)
    idx, valid = map_index.query(world, max_correspondence_m)
    active = valid & (weights > 0)
    p = world[active]
    m = map_index.cloud.points[idx[active]]
    nrm = normals_at(map_index.cloud, idx[active])
    residuals = np.einsum("ij,ij->i", p - m, nrm)
    return float((weights[active] * kernel_cost(residuals, huber_scale_m)).sum())


def random_rotvec(rng: np.random.Generator, max_angle: float = np.pi * 0.9) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0, max_angle)


@pytest.fixture(scope="session")
def room_model():
    return extrude_floorplan(square_room_plan())


@pytest.fixture(scope="session")
def room_scene(room_model):
    return Scene(as_built=room_model)


@pytest.fixture(scope="session")
def deviated_room():
    """Room whose far wall sits 0.3 m closer than the plan claims."""
    plan_model = extrude_floorplan(square_room_plan())
    shift = RigidTransform(np.eye(3), [0.0, -0.3, 0.0])
    as_built = apply_deviation(plan_model, [Deviation(("wall_c",), shift)])
    return plan_model, as_built
