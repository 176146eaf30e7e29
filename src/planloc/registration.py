"""Weighted point-to-plane ICP against a sampled map, plus localization as a
list of ICP stages whose outcome follows from one table of stop causes.

The ICP objective is

    argmin_T  sum_i  w_i * c[ (T(p_i) - m_i) . n(m_i) ]

where m_i is the nearest map point to the transformed scan point, n(m_i) its
surface normal, w_i the per-point scan weight, and c the Huber cost at scale
s (Huber 1964). A residual is at most the distance to its match, so with s at
or above the correspondence gate c is the squared cost. Each iteration
re-matches, forms the residuals and their Jacobian once, and takes one step
over a left-multiplied twist increment (rotation via the exponential map): a
Newton step of the Huber cost (gradient of the clipped residuals, Hessian of
the inliers), taken when that Hessian has full rank and no residual is
predicted to move by more than s; otherwise the iteratively-reweighted (IRLS)
Gauss-Newton step, which converges only linearly under a tight scale. With
every residual an inlier, both are the Gauss-Newton step, bit for bit.

Selective localization first aligns against the full building map, then
refines against the task-reference map only, and rejects the refinement when
it moved too far from the full alignment.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.spatial import cKDTree

from .fusion import weights_binary, weights_linear
from .geometry import RigidTransform, compose, pose_delta, rotvec_to_matrix
from .model import MapCloud
from .sensor_sim import Scan

class FailureReason(str, enum.Enum):
    FULL_ICP_DIVERGED = "full_icp_diverged"
    SELECTIVE_ICP_DIVERGED = "selective_icp_diverged"
    TOO_FEW_REFERENCE_MATCHES = "too_few_reference_matches"
    REJECTED_INCONSISTENT = "rejected_inconsistent"
    FULL_ICP_BUDGET_EXHAUSTED = "full_icp_budget_exhausted"
    SELECTIVE_ICP_BUDGET_EXHAUSTED = "selective_icp_budget_exhausted"


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 50
    max_correspondence_m: float = 0.5
    translation_eps_m: float = 1e-4
    rotation_eps_rad: float = 1e-5
    huber_scale_m: float = 0.05
    min_correspondences: int = 30

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:  # NaN is not > 0
                raise ValueError(f"ICP configuration value {f.name} must be positive")


@dataclass(frozen=True)
class IcpResult:
    """One ICP run and why it stopped (`stop`): its last step fell below both
    epsilons ("converged"), fewer than `min_correspondences` weighted points
    matched ("starved"), or it ran all `max_iterations` with its robust cost
    not rising ("budget_exhausted") or rising ("diverged") on the last one."""

    transform: RigidTransform
    stop: str
    iterations: int
    residual_rms_m: float  # weighted RMS of point-to-plane residuals
    correspondences: int  # matched points with weight > 0 at the last iteration

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


@dataclass(frozen=True)
class SelectiveConfig:
    """Thresholds for the full-vs-selective consistency rejection, plus the
    inner solver settings for both stages."""

    tau_translation_m: float = 0.15
    tau_rotation_rad: float = 0.05
    full_icp: IcpConfig = field(default_factory=IcpConfig)
    selective_icp: IcpConfig = field(default_factory=IcpConfig)

    def __post_init__(self):
        if not (0 < self.tau_translation_m < math.inf and 0 < self.tau_rotation_rad < math.inf):
            raise ValueError("rejection thresholds must be finite and > 0")


@dataclass(frozen=True)
class LocalizationResult:
    """Either a localized pose or a failure with a stated reason, with the
    ICP result of every stage run, full-map stage first."""

    transform: RigidTransform | None
    failure_reason: FailureReason | None
    stages: tuple[IcpResult, ...] = ()

    def __post_init__(self):
        if (self.transform is None) == (self.failure_reason is None):
            raise ValueError("exactly one of transform / failure_reason must be set")

    @property
    def localized(self) -> bool:
        return self.transform is not None


# Points per kd-tree leaf. With sliding-midpoint splits (Maneewongvatana &
# Mount 1999) and 32-point leaves, the benchmark workloads' queries ran ~1.2x
# faster and their trees built 1.3-1.7x faster than with scipy's default
# median splits and 16-point leaves; nearest points and distances are equal.
_LEAF_SIZE = 32


# How far past the gate a certificate's search looks for two map points, so
# that an out-of-gate point's certificate outlasts a move. On the benchmark's
# room requests ICP searched 57 % of its query rows with 1 cm, 52.4 % with
# 5 cm and 52.2 % with 10 or 20 cm; the search time did not separate them.
_REACH_MARGIN_M = 0.05
# Slack for rounding: a certificate must hold by more than this, so a point
# whose nearest map point lies this close to the gate, or to a tie, is left
# to a plain gated search.
_ROUNDING_M = 1e-9


class NearestCertificates:
    """What the last search found for each query point of one ICP run: where
    the point was (`anchor`), its nearest map point (`nearest`, at distance
    `d1`) and the distance `d2` to its second-nearest, both clipped to the
    gate plus `_REACH_MARGIN_M`. Kept by the run, never by the map: two
    threads may query one map at once."""

    def __init__(self):
        self.start(0, None)

    def start(self, n: int, gate: float | None) -> None:
        """Forget everything: n rows at `gate`, none of them searched yet."""
        self.gate = gate
        self.anchor = np.zeros((n, 3))
        self.nearest = np.zeros(n, dtype=np.intp)
        self.d1 = np.zeros(n)  # d1 = d2 = 0 proves nothing
        self.d2 = np.zeros(n)

    def decide(self, shift, gate: float, rows=slice(None)):
        """(inside, outside) for `rows` moved by `shift` since their search.

        A point is inside the gate, at its old nearest map point, when
        2 shift < d2 - d1 (no other map point can have come closer) and
        d1 + shift < gate. It is outside when d1 - shift > gate (no map point
        can have come within the gate). Each must hold by `_ROUNDING_M`.
        d2 is infinite only under an infinite gate, and d1 never is.
        """
        d1, d2 = self.d1[rows], self.d2[rows]
        inside = (2.0 * shift + _ROUNDING_M < d2 - d1) & (d1 + shift < gate - _ROUNDING_M)
        return inside, d1 - shift > gate + _ROUNDING_M


class MapIndex:
    """Exact nearest-neighbor index over a map cloud (kd-tree backed)."""

    def __init__(self, cloud: MapCloud):
        if len(cloud) == 0:
            raise ValueError("cannot index an empty map cloud")
        self.cloud = cloud
        self._tree = cKDTree(cloud.points, leafsize=_LEAF_SIZE, balanced_tree=False)

    def __len__(self) -> int:
        return len(self.cloud)

    def query(
        self,
        points: np.ndarray,
        max_distance: float = np.inf,
        certificates: NearestCertificates | None = None,
    ):
        """Nearest map point per query point.

        Returns (index (N,), valid (N,)); invalid entries index point 0 and
        must be masked by the caller. Given the `certificates` of earlier
        queries of the same rows at the same gate, it searches the tree only
        for the rows they cannot decide, and updates them; the answer is the
        same as without.
        """
        if certificates is None:
            return self._gated(points, max_distance)
        gate, cert = max_distance, certificates
        if cert.gate != gate or len(cert.anchor) != len(points):
            cert.start(len(points), gate)
        moved = points - cert.anchor
        shift = np.sqrt(np.einsum("ij,ij->i", moved, moved))
        inside, outside = cert.decide(shift, gate)
        rows = np.flatnonzero(~(inside | outside))
        if len(rows):
            reach = gate + _REACH_MARGIN_M
            dist, near = self._tree.query(points[rows], k=2, distance_upper_bound=reach)
            np.minimum(dist, reach, out=dist)
            cert.anchor[rows], cert.nearest[rows] = points[rows], near[:, 0]
            cert.d1[rows], cert.d2[rows] = dist[:, 0], dist[:, 1]
            inside[rows], outside[rows] = cert.decide(0.0, gate, rows)
        idx = np.where(inside, cert.nearest, 0)
        # a near-tie or a distance at the gate: the tree gates squared
        # distances, and a two-point search may break an exact tie otherwise
        redo = np.flatnonzero(~(inside | outside))
        if len(redo):
            idx[redo], inside[redo] = self._gated(points[redo], gate)
        return idx, inside

    def _gated(self, points: np.ndarray, max_distance: float):
        dist, idx = self._tree.query(points, k=1, distance_upper_bound=max_distance)
        valid = np.isfinite(dist)
        return np.where(valid, idx, 0), valid


def residual_jacobian(points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Jacobian of the point-to-plane residual w.r.t. a left-multiplied twist.

    Twist ordering is (rotation, translation); row i is
    [ p_i x n_i , n_i ] for the already-transformed point p_i.
    """
    return np.concatenate([np.cross(points, normals), normals], axis=1)


def _kernel_weights(residuals: np.ndarray, scale: float) -> np.ndarray:
    absr = np.abs(residuals)
    return np.where(absr <= scale, 1.0, scale / np.where(absr > 0, absr, 1.0))


def kernel_cost(residuals: np.ndarray, scale: float) -> np.ndarray:
    """Per-residual Huber cost, consistent with the IRLS weights of
    _kernel_weights: r^2 for |r| <= scale (every r under an infinite scale),
    scale (2|r| - scale) beyond."""
    absr = np.abs(residuals)
    return np.where(absr <= scale, residuals * residuals, scale * (2.0 * absr - scale))


def gauss_newton_step(jac: np.ndarray, residuals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One weighted Gauss-Newton increment (rotvec, translation) minimizing
    the linearized point-to-plane objective for fixed correspondences, given
    their residuals and `residual_jacobian`.

    Uses a minimum-norm solve so unconstrained directions (degenerate
    reference geometry) receive a zero increment instead of blowing up.
    """
    h = (jac * weights[:, None]).T @ jac
    g = jac.T @ (weights * residuals)
    step, *_ = np.linalg.lstsq(h, -g, rcond=None)
    return step


def huber_newton_step(
    jac: np.ndarray, residuals: np.ndarray, weights: np.ndarray, scale: float
) -> np.ndarray | None:
    """Newton increment of the Huber cost for fixed correspondences, or None
    when it cannot be trusted.

    Gradient Jᵀ(w·clip(r, ±scale)); Hessian Σ w·JᵀJ over the inliers
    (|r| ≤ scale) alone. The step is taken only when that Hessian has full
    rank (else the solve drops the gradient outside its range and stalls
    above the minimum) and no residual is predicted to move by more than
    `scale` (else the inlier set it was built from no longer holds).
    """
    inlier_w = np.where(np.abs(residuals) <= scale, weights, 0.0)
    h = (jac * inlier_w[:, None]).T @ jac
    g = jac.T @ (weights * np.clip(residuals, -scale, scale))
    step, _, rank, _ = np.linalg.lstsq(h, -g, rcond=None)
    if rank < 6 or np.abs(jac @ step).max() > scale:
        return None
    return step


def point_to_plane_icp(
    scan: Scan,
    map_index: MapIndex,
    init: RigidTransform,
    cfg: IcpConfig = IcpConfig(),
) -> IcpResult:
    """Iteratively align a (possibly weighted) scan to the map.

    Correspondences are nearest map points within the gating distance;
    convergence means the last increment fell below both epsilon thresholds
    while at least `min_correspondences` weighted matches were active. One
    map query per iteration, of the points with weight > 0 alone; it
    searches the kd-tree only for the points whose certificates from earlier
    iterations do not prove the answer unchanged. Never raises on divergence
    or starvation; inspect `stop`.
    """
    points = scan.points
    weights = scan.weights if scan.weights is not None else np.ones(len(points))
    transform = init
    residual_rms = 0.0
    n_corr = 0
    if len(points) == 0:
        return IcpResult(transform, "starved", 0, residual_rms, 0)
    positive = weights > 0
    points, weights = points[positive], weights[positive]
    map_points, map_triangle = map_index.cloud.points, map_index.cloud.triangle
    triangle_normals = map_index.cloud.model.triangle_normals
    certificates = NearestCertificates()
    cost = math.inf
    for iteration in range(1, cfg.max_iterations + 1):
        world = transform.apply(points)
        idx, valid = map_index.query(world, cfg.max_correspondence_m, certificates)
        n_corr = int(valid.sum())
        if n_corr < cfg.min_correspondences:
            return IcpResult(transform, "starved", iteration, residual_rms, n_corr)
        p = world[valid]
        m = map_points[idx[valid]]
        nrm = triangle_normals[map_triangle[idx[valid]]]
        w = weights[valid]
        residuals = np.einsum("ij,ij->i", p - m, nrm)
        jac = residual_jacobian(p, nrm)
        step = huber_newton_step(jac, residuals, w, cfg.huber_scale_m)
        if step is None:
            irls = _kernel_weights(residuals, cfg.huber_scale_m)
            step = gauss_newton_step(jac, residuals, w * irls)
        w_sum = float(w.sum())
        residual_rms = math.sqrt(float((w * residuals**2).sum()) / w_sum)
        prev_cost = cost
        cost = float((w * kernel_cost(residuals, cfg.huber_scale_m)).sum())
        omega, v = step[:3], step[3:]
        transform = compose(RigidTransform(rotvec_to_matrix(omega), v), transform)
        if np.linalg.norm(v) < cfg.translation_eps_m and np.linalg.norm(omega) < cfg.rotation_eps_rad:
            return IcpResult(transform, "converged", iteration, residual_rms, n_corr)
    stop = "budget_exhausted" if cost <= prev_cost else "diverged"
    return IcpResult(transform, stop, cfg.max_iterations, residual_rms, n_corr)


ICP_METHODS = ("full", "selective")
SCAN_METHODS = ("full", "filtered", "weighted")

# The failure of a localization whose stage i (0: the full map, 1: the
# reference map) stopped with cause `stop`, by (i, stop).
_STAGE_FAILURES = {
    (0, "starved"): FailureReason.FULL_ICP_DIVERGED,
    (0, "diverged"): FailureReason.FULL_ICP_DIVERGED,
    (0, "budget_exhausted"): FailureReason.FULL_ICP_BUDGET_EXHAUSTED,
    (1, "starved"): FailureReason.TOO_FEW_REFERENCE_MATCHES,
    (1, "diverged"): FailureReason.SELECTIVE_ICP_DIVERGED,
    (1, "budget_exhausted"): FailureReason.SELECTIVE_ICP_BUDGET_EXHAUSTED,
}


def conclude(stages: tuple[IcpResult, ...], cfg: SelectiveConfig) -> LocalizationResult:
    """The outcome of `stages`, run in order until one did not converge.

    A last stage that did not converge names the failure by its index and
    stop. After two converged stages, the second is rejected as inconsistent
    when it moved further than `cfg`'s translation or rotation threshold from
    the first. Otherwise the last stage's pose is the result.
    """
    last = stages[-1]
    reason = None if last.converged else _STAGE_FAILURES[len(stages) - 1, last.stop]
    if reason is None and len(stages) == 2:
        d = pose_delta(last.transform, stages[0].transform)
        if d.translation_norm > cfg.tau_translation_m or d.rotation_angle > cfg.tau_rotation_rad:
            reason = FailureReason.REJECTED_INCONSISTENT
    return LocalizationResult(last.transform if reason is None else None, reason, stages)


def localize(
    scan: Scan,
    full_map: MapIndex,
    ref_map: MapIndex | None,
    prev: RigidTransform,
    method: tuple[str, str],
    delta: float = 0.5,
    delta_prime: float = 0.1,
    cfg: SelectiveConfig = SelectiveConfig(),
) -> LocalizationResult:
    """Localize `scan` from `prev` with one (icp, scan) method combination.

    scan 'full'      -> all points, unit weights
         'filtered'  -> binary density threshold `delta` applied first
         'weighted'  -> linear density weights with threshold `delta_prime`
                        (an empty scan has nothing to weight)
    icp  'full'      -> one stage: align to the full building map from `prev`
         'selective' -> three steps: align to the full map from `prev`, refine
                        against `ref_map` alone from there, and reject the
                        refinement when it moved further than the translation
                        or rotation threshold from the full alignment
    The stages stop at the first that does not converge, and `conclude` gives
    the outcome. `ref_map` must be built from a validated reference set.
    """
    icp_method, scan_method = method
    if icp_method not in ICP_METHODS or scan_method not in SCAN_METHODS:
        raise ValueError(f"unknown method tuple {method!r}")
    stages = ((full_map, cfg.full_icp),)
    if icp_method == "selective":
        if ref_map is None:
            raise ValueError("selective localization needs a reference map")
        stages += ((ref_map, cfg.selective_icp),)
    if scan_method == "full":
        scan = Scan(scan.points)
    elif len(scan):
        filtered = scan_method == "filtered"
        scan = weights_binary(scan, delta) if filtered else weights_linear(scan, delta_prime)
    results = []
    for map_index, icp_cfg in stages:
        results.append(point_to_plane_icp(scan, map_index, prev, icp_cfg))
        if not results[-1].converged:
            break
        prev = results[-1].transform
    return conclude(tuple(results), cfg)


def result_record(result: LocalizationResult, icp_method: str, scan_method: str) -> dict:
    """JSON-serializable record of one localization outcome. The top-level
    `iterations`, `residual_m` and `matches` are the last stage run's;
    `stages` holds them for every stage run, full-map stage first."""
    stages = [
        {
            "iterations": stage.iterations,
            "matches": stage.correspondences,
            "residual_m": float(stage.residual_rms_m),
        }
        for stage in result.stages
    ]
    last = stages[-1] if stages else {"iterations": 0, "matches": 0, "residual_m": 0.0}
    record = {
        "method": {"icp": icp_method, "scan": scan_method},
        "outcome": "localized" if result.localized else "failed",
        "transform": (
            {
                "r": [float(x) for x in result.transform.rotation.ravel()],
                "t": [float(x) for x in result.transform.translation],
            }
            if result.localized
            else None
        ),
        "iterations": last["iterations"],
        "residual_m": last["residual_m"],
        "matches": last["matches"],
        "stages": stages,
    }
    if not result.localized:
        record["failure_reason"] = result.failure_reason.value
    return record
