"""Weighted point-to-plane ICP against a sampled map, plus the three-step
selective localization pipeline with consistency rejection.

The ICP objective is

    argmin_T  sum_i  w_i * c[ (T(p_i) - m_i) . n(m_i) ]

where m_i is the nearest map point to the transformed scan point, n(m_i) its
surface normal, w_i the per-point scan weight, and c a squared or Huber cost.
Each iteration re-matches and takes one step over a left-multiplied twist
increment (rotation via the exponential map). With the squared kernel it is
the Gauss-Newton step. With the Huber kernel it is a Newton step of the Huber
cost (gradient of the clipped residuals, Hessian of the inliers), taken when
that Hessian has full rank and no residual is predicted to move by more than
the Huber scale; otherwise it is the iteratively-reweighted (IRLS)
Gauss-Newton step, which converges only linearly under a tight scale.

Selective localization first aligns against the full building map, then
refines against the task-reference map only, and rejects the refinement when
it moved too far from the full alignment.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .fusion import weights_binary, weights_linear
from .geometry import RigidTransform, compose, pose_delta, rotvec_to_matrix
from .model import MapCloud
from .sensor_sim import Scan

KERNELS = ("squared", "huber")


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
    kernel: str = "huber"
    huber_scale_m: float = 0.05
    min_correspondences: int = 30

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")
        if min(
            self.max_iterations,
            self.max_correspondence_m,
            self.translation_eps_m,
            self.rotation_eps_rad,
            self.huber_scale_m,
            self.min_correspondences,
        ) <= 0:
            raise ValueError("all ICP configuration values must be positive")


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    converged: bool
    iterations: int
    residual_rms_m: float  # weighted RMS of point-to-plane residuals
    correspondences: int  # matched points with weight > 0 at the last iteration
    # ran all max_iterations without its robust cost rising on the last one
    budget_exhausted: bool = False


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
    """Either a localized pose or a failure with a stated reason; the stage
    ICP results are kept for inspection."""

    transform: RigidTransform | None
    failure_reason: FailureReason | None
    full_icp: IcpResult | None = None
    selective_icp: IcpResult | None = None

    def __post_init__(self):
        if (self.transform is None) == (self.failure_reason is None):
            raise ValueError("exactly one of transform / failure_reason must be set")

    @classmethod
    def from_full_icp(cls, res: IcpResult) -> LocalizationResult:
        """The full-map method's outcome: the stage's pose when it converged."""
        if res.converged:
            return cls(res.transform, None, res, None)
        failure = (
            FailureReason.FULL_ICP_BUDGET_EXHAUSTED
            if res.budget_exhausted
            else FailureReason.FULL_ICP_DIVERGED
        )
        return cls(None, failure, res, None)

    @property
    def localized(self) -> bool:
        return self.transform is not None


# Points per kd-tree leaf. With sliding-midpoint splits (Maneewongvatana &
# Mount 1999) and 32-point leaves, the benchmark workloads' queries ran ~1.2x
# faster and their trees built 1.3-1.7x faster than with scipy's default
# median splits and 16-point leaves; nearest points and distances are equal.
_LEAF_SIZE = 32


class MapIndex:
    """Exact nearest-neighbor index over a map cloud (kd-tree backed)."""

    def __init__(self, cloud: MapCloud):
        if len(cloud) == 0:
            raise ValueError("cannot index an empty map cloud")
        self.cloud = cloud
        self._tree = cKDTree(cloud.points, leafsize=_LEAF_SIZE, balanced_tree=False)

    def __len__(self) -> int:
        return len(self.cloud)

    def query(self, points: np.ndarray, max_distance: float = np.inf):
        """Nearest map point per query point.

        Returns (index (N,), valid (N,)); invalid entries index point 0 and
        must be masked by the caller.
        """
        dist, idx = self._tree.query(points, k=1, distance_upper_bound=max_distance)
        valid = np.isfinite(dist)
        idx = np.where(valid, idx, 0)
        return idx, valid


def residual_jacobian(points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Jacobian of the point-to-plane residual w.r.t. a left-multiplied twist.

    Twist ordering is (rotation, translation); row i is
    [ p_i x n_i , n_i ] for the already-transformed point p_i.
    """
    return np.concatenate([np.cross(points, normals), normals], axis=1)


def _kernel_weights(residuals: np.ndarray, kernel: str, scale: float) -> np.ndarray:
    if kernel == "squared":
        return np.ones_like(residuals)
    absr = np.abs(residuals)
    return np.where(absr <= scale, 1.0, scale / np.where(absr > 0, absr, 1.0))


def kernel_cost(residuals: np.ndarray, kernel: str, scale: float) -> np.ndarray:
    """Per-residual cost consistent with the IRLS weights of _kernel_weights."""
    if kernel == "squared":
        return residuals * residuals
    absr = np.abs(residuals)
    return np.where(absr <= scale, residuals * residuals, scale * (2.0 * absr - scale))


def gauss_newton_step(
    points: np.ndarray,
    matched_points: np.ndarray,
    matched_normals: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """One weighted Gauss-Newton increment (rotvec, translation) minimizing
    the linearized point-to-plane objective for fixed correspondences.

    Uses a minimum-norm solve so unconstrained directions (degenerate
    reference geometry) receive a zero increment instead of blowing up.
    """
    residuals = np.einsum("ij,ij->i", points - matched_points, matched_normals)
    jac = residual_jacobian(points, matched_normals)
    h = (jac * weights[:, None]).T @ jac
    g = jac.T @ (weights * residuals)
    step, *_ = np.linalg.lstsq(h, -g, rcond=None)
    return step


def huber_newton_step(
    points: np.ndarray,
    matched_normals: np.ndarray,
    weights: np.ndarray,
    residuals: np.ndarray,
    scale: float,
) -> np.ndarray | None:
    """Newton increment of the Huber cost for fixed correspondences, or None
    when it cannot be trusted.

    Gradient Jᵀ(w·clip(r, ±scale)); Hessian Σ w·JᵀJ over the inliers
    (|r| ≤ scale) alone. The step is taken only when that Hessian has full
    rank (else the solve drops the gradient outside its range and stalls
    above the minimum) and no residual is predicted to move by more than
    `scale` (else the inlier set it was built from no longer holds).
    """
    jac = residual_jacobian(points, matched_normals)
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
    map query per iteration, of the points with weight > 0 alone. Never
    raises on divergence or starvation; inspect `converged` and
    `budget_exhausted`.
    """
    points = scan.points
    weights = scan.weights if scan.weights is not None else np.ones(len(points))
    transform = init
    residual_rms = 0.0
    n_corr = 0
    if len(points) == 0:
        return IcpResult(transform, False, 0, residual_rms, 0)
    positive = weights > 0
    points, weights = points[positive], weights[positive]
    map_points = map_index.cloud.points
    map_normals = map_index.cloud.normals
    cost = math.inf
    for iteration in range(1, cfg.max_iterations + 1):
        world = transform.apply(points)
        idx, valid = map_index.query(world, cfg.max_correspondence_m)
        n_corr = int(valid.sum())
        if n_corr < cfg.min_correspondences:
            return IcpResult(transform, False, iteration, residual_rms, n_corr)
        p = world[valid]
        m = map_points[idx[valid]]
        nrm = map_normals[idx[valid]]
        w = weights[valid]
        residuals = np.einsum("ij,ij->i", p - m, nrm)
        step = (
            huber_newton_step(p, nrm, w, residuals, cfg.huber_scale_m)
            if cfg.kernel == "huber"
            else None
        )
        if step is None:
            irls = _kernel_weights(residuals, cfg.kernel, cfg.huber_scale_m)
            step = gauss_newton_step(p, m, nrm, w * irls)
        w_sum = float(w.sum())
        residual_rms = math.sqrt(float((w * residuals**2).sum()) / w_sum)
        prev_cost = cost
        cost = float((w * kernel_cost(residuals, cfg.kernel, cfg.huber_scale_m)).sum())
        omega, v = step[:3], step[3:]
        transform = compose(RigidTransform(rotvec_to_matrix(omega), v), transform)
        if np.linalg.norm(v) < cfg.translation_eps_m and np.linalg.norm(omega) < cfg.rotation_eps_rad:
            return IcpResult(transform, True, iteration, residual_rms, n_corr)
    return IcpResult(
        transform, False, cfg.max_iterations, residual_rms, n_corr, budget_exhausted=cost <= prev_cost
    )


def pose_to_plane_cost(
    scan: Scan,
    map_index: MapIndex,
    pose: RigidTransform,
    kernel: str = "squared",
    huber_scale_m: float = 0.05,
    max_correspondence_m: float = np.inf,
) -> float:
    """Total weighted point-to-plane cost of a pose, with re-matching.

    Matches the ICP objective for the same kernel/gating; useful as an
    independent yardstick (e.g. exhaustive grid sweeps).
    """
    weights = scan.weights if scan.weights is not None else np.ones(len(scan))
    world = pose.apply(scan.points)
    idx, valid = map_index.query(world, max_correspondence_m)
    active = valid & (weights > 0)
    p = world[active]
    m = map_index.cloud.points[idx[active]]
    nrm = map_index.cloud.normals[idx[active]]
    residuals = np.einsum("ij,ij->i", p - m, nrm)
    return float((weights[active] * kernel_cost(residuals, kernel, huber_scale_m)).sum())


def selective_localize(
    scan: Scan,
    full_map: MapIndex,
    ref_map: MapIndex,
    prev: RigidTransform,
    cfg: SelectiveConfig = SelectiveConfig(),
) -> LocalizationResult:
    """Three-step selective localization.

    1. align the scan to the full building map starting from `prev`;
    2. refine against the reference map only, starting from step 1;
    3. reject the refinement when it moved further than the translation or
       rotation threshold away from the full alignment.

    `ref_map` must be built from a validated reference set.
    """
    full_res = point_to_plane_icp(scan, full_map, prev, cfg.full_icp)
    if not full_res.converged:
        return LocalizationResult.from_full_icp(full_res)
    sel_res = point_to_plane_icp(scan, ref_map, full_res.transform, cfg.selective_icp)
    if not sel_res.converged:
        if sel_res.correspondences < cfg.selective_icp.min_correspondences:
            reason = FailureReason.TOO_FEW_REFERENCE_MATCHES
        elif sel_res.budget_exhausted:
            reason = FailureReason.SELECTIVE_ICP_BUDGET_EXHAUSTED
        else:
            reason = FailureReason.SELECTIVE_ICP_DIVERGED
        return LocalizationResult(None, reason, full_res, sel_res)
    delta = pose_delta(sel_res.transform, full_res.transform)
    if (
        delta.translation_norm > cfg.tau_translation_m
        or delta.rotation_angle > cfg.tau_rotation_rad
    ):
        return LocalizationResult(
            None, FailureReason.REJECTED_INCONSISTENT, full_res, sel_res
        )
    return LocalizationResult(sel_res.transform, None, full_res, sel_res)


ICP_METHODS = ("full", "selective")
SCAN_METHODS = ("full", "filtered", "weighted")


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
    """Dispatch one (icp, scan) method combination.

    icp  'full'      -> single ICP against the full map
         'selective' -> three-step pipeline (needs ref_map)
    scan 'full'      -> all points, unit weights
         'filtered'  -> binary density threshold `delta` applied first
         'weighted'  -> linear density weights with threshold `delta_prime`
    """
    icp_method, scan_method = method
    if icp_method not in ICP_METHODS or scan_method not in SCAN_METHODS:
        raise ValueError(f"unknown method tuple {method!r}")
    if len(scan) == 0:
        # nothing to weight or match; report it as a failed first stage
        return LocalizationResult.from_full_icp(IcpResult(prev, False, 0, 0.0, 0))
    if scan_method == "filtered":
        scan = weights_binary(scan, delta)
    elif scan_method == "weighted":
        scan = weights_linear(scan, delta_prime)
    if icp_method == "full":
        return LocalizationResult.from_full_icp(
            point_to_plane_icp(scan, full_map, prev, cfg.full_icp)
        )
    if ref_map is None:
        raise ValueError("selective localization needs a reference map")
    return selective_localize(scan, full_map, ref_map, prev, cfg)


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
        for stage in (result.full_icp, result.selective_icp)
        if stage is not None
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
