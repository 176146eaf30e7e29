"""Weighted point-to-plane ICP against a sampled map, plus localization as a
list of ICP stages whose outcome follows from one table of stop causes.

The ICP objective is

    argmin_T  sum_i  w_i * c[ n_i . T(p_i) + d_i ]

where (n_i, d_i) is the plane of m_i, the nearest map point to the
transformed scan point, w_i the per-point scan weight, and c the Huber cost
at scale s (Huber 1964). Every map point lies on its plan triangle, so the
residual is (T(p_i) - m_i) . n_i up to rounding, and at most the distance to
the match; so with s at or above the correspondence gate c is the squared
cost. Each iteration
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
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .fusion import weights_binary, weights_linear
from .geometry import RigidTransform, compose, pose_delta, rotvec_to_matrix
from .model import MapCloud
from .sensor_sim import Scan

class FailureReason(str, enum.Enum):
    FULL_ICP_DIVERGED = "full_icp_diverged"
    TOO_FEW_FULL_MAP_MATCHES = "too_few_full_map_matches"
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
    matched ("starved"), or it ran all `max_iterations` and its last step did
    not raise ("budget_exhausted") or raised ("diverged") the robust cost
    over the matches it was taken for."""

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


# How far past the gate a search looks: d1 is clipped there, so that an
# out-of-gate point's certificate outlasts a move of up to this margin. On
# four seed-101 benchmark operations each, plane certificates searched 22.0 %
# of once_replay's query rows (site_sim 22.6 %) with 1 cm, 20.9 % (21.5 %)
# with 2 cm, 18.5 % (19.6 %) with 5 cm and 18.5 % (19.1 %) with 10 or 20 cm;
# single timed runs did not separate 5 cm from the wider margins.
_REACH_MARGIN_M = 0.05
# Slack for rounding: a certificate must hold by more than this, so a point
# whose nearest map point lies this close to the gate, or whose nearest other
# plane lies this close to a tie, is left to a plain gated search. It also
# covers a map point's distance from its triangle's plane (model.COPLANAR_M).
_ROUNDING_M = 1e-9


class NearestCertificates:
    """What the last search found for each query point of one localization:
    where the point was (`anchor`), the triangle of its nearest map point
    (`triangle`, -1 when none lay within reach), the distance `d1` to that
    point, clipped to the gate plus `_REACH_MARGIN_M`, and the distance
    `d_other` from the anchor to the nearest other plane of the map (0 where
    it is not needed). `index` and `gate` say what they were found on. Kept
    by the run, never by the map: two threads may query one map at once."""

    def __init__(self):
        self.start(None, 0, None)

    def start(self, index: "MapIndex | None", n: int, gate: float | None) -> None:
        """Forget everything: n rows of `index` at `gate`, none searched yet."""
        self.index, self.gate = index, gate
        self.anchor = np.zeros((n, 3))
        self.triangle = np.full(n, -1, dtype=np.int32)
        self.d1 = np.zeros(n)  # d1 = d_other = 0 proves nothing
        self.d_other = np.zeros(n)

    def decide(self, shift, gate: float, rows=slice(None)):
        """(inside, outside) for `rows` moved by `shift` since their search.

        Every map point of another plane lies on that plane, so it is at
        least d_other - shift from the moved point, and the nearest point of
        the matched plane at most d1 + shift. So a point is inside the gate,
        with its nearest map point on the same plane, when
        2 shift < d_other - d1 and d1 + shift < gate. It is outside when
        d1 - shift > gate (no map point can have come within the gate). Each
        must hold by `_ROUNDING_M`. d1 is never infinite.
        """
        d1 = self.d1[rows]
        inside = (2.0 * shift + _ROUNDING_M < self.d_other[rows] - d1) & (
            d1 + shift < gate - _ROUNDING_M
        )
        return inside, d1 - shift > gate + _ROUNDING_M


class MapIndex:
    """Exact nearest-neighbor index over a map cloud (kd-tree backed), and
    the planes of the map's points, for certified queries."""

    def __init__(self, cloud: MapCloud):
        if len(cloud) == 0:
            raise ValueError("cannot index an empty map cloud")
        self.cloud = cloud
        self._tree = cKDTree(cloud.points, leafsize=_LEAF_SIZE, balanced_tree=False)

    @cached_property
    def _planes(self) -> list:
        """(plane, unit normal, offset) of each plane of the model that holds
        points of this map; found on the first certified query, not at
        set-up. Two threads may both find it: they find the same."""
        planes, kept = self.cloud.model.planes, self.cloud.kept
        held = np.unique(planes.of_triangle[slice(None) if kept is None else kept])
        return [(p, planes.normals[p], planes.offsets[p]) for p in held]

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
        must be masked by the caller. Given `certificates`, it returns
        (plane (N,), valid (N,)) instead: the plane, in the model's `planes`
        table, of each point's nearest map point (0 where invalid). It then
        searches the tree only for the rows the certificates of earlier
        queries of the same rows cannot decide, and updates them; the answer
        is that of a fresh search.
        """
        if certificates is None:
            return self._gated(points, max_distance)
        gate, cert = max_distance, certificates
        self._adopt(cert, len(points), gate)
        moved = points - cert.anchor
        shift = np.sqrt(np.einsum("ij,ij->i", moved, moved))
        inside, outside = cert.decide(shift, gate)
        rows = np.flatnonzero(~(inside | outside))
        # A row last found inside the gate is searched within the gate: a
        # plain search, whose answer stands. Any other row is searched within
        # reach, and its answer stands when its new certificate decides it.
        was_in = (cert.triangle[rows] >= 0) & (cert.d1[rows] < gate)
        reached = rows[~was_in]
        if len(reached):
            self._search(cert, points, reached, gate + _REACH_MARGIN_M, gate)
            inside[reached], outside[reached] = cert.decide(0.0, gate, reached)
        # The rest, and a row at the gate or about as near another plane as
        # its nearest point: the tree gates squared distances, and may break
        # an exact tie otherwise.
        plain = np.concatenate([rows[was_in], reached[~(inside | outside)[reached]]])
        if len(plain):
            inside[plain] = self._search(cert, points, plain, gate, gate)
        return np.where(inside, self.cloud.model.planes.of_triangle[cert.triangle], 0), inside

    def _search(self, cert: NearestCertificates, points, rows, bound: float, gate: float):
        """Search `rows` of `points` for a map point nearer than `bound`, and
        certify them for `gate`; whether one was found."""
        at = points[rows]
        dist, near = self._tree.query(at, k=1, distance_upper_bound=bound)
        found = near < len(self)
        triangle = np.full(len(rows), -1, dtype=np.int32)
        triangle[found] = self.cloud.triangle[near[found]]
        d1 = np.minimum(dist, bound)
        cert.anchor[rows], cert.triangle[rows], cert.d1[rows] = at, triangle, d1
        cert.d_other[rows] = self._other_plane(at, triangle, d1, gate)
        return found

    def _adopt(self, cert: NearestCertificates, n: int, gate: float) -> None:
        """Make `cert` certify n rows of this map at `gate`: keep it, take it
        over from the full-map stage, or start it afresh.

        Taken over only from the cloud this map's cloud is a `subset` of,
        which holds all of this map's points. A row whose nearest point there
        is one of this map's keeps it, at the same distance, with d_other
        recomputed over this map's planes. Every other row keeps d1 as a
        lower bound: it can prove the row outside the gate, never inside.
        """
        old = cert.index
        if old is self and cert.gate == gate and len(cert.d1) == n:
            return
        if old is None or old.cloud is not self.cloud.parent or len(cert.d1) != n:
            cert.start(self, n, gate)
            return
        cert.index, cert.gate = self, gate
        found = cert.triangle >= 0
        keep = np.zeros(n, dtype=bool)
        keep[found] = self.cloud.kept[cert.triangle[found]]
        cert.triangle[~keep] = -1
        cert.d_other = self._other_plane(cert.anchor, cert.triangle, cert.d1, gate)

    def _other_plane(self, points, triangle, d1, gate: float) -> np.ndarray:
        """Distance from each point to the nearest plane of this map other
        than its `triangle`'s; 0 where d1 rules out a match inside `gate`.
        A running minimum over the planes: no rows x planes temporaries."""
        d_other = np.zeros(len(points))
        rows = np.flatnonzero((triangle >= 0) & (d1 < gate - _ROUNDING_M))
        if len(rows):
            at, own = points[rows], self.cloud.model.planes.of_triangle[triangle[rows]]
            nearest = np.full(len(rows), np.inf)
            for plane, normal, offset in self._planes:
                dist = np.abs(at @ normal + offset)
                np.minimum(nearest, dist, out=nearest, where=own != plane)
            d_other[rows] = nearest
        return d_other

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
    certificates: NearestCertificates | None = None,
) -> IcpResult:
    """Iteratively align a (possibly weighted) scan to the map.

    Each point within the gating distance of the map matches the plane of
    its nearest map point, and its residual is that plane's n . p + d.
    Convergence means the last increment fell below both epsilon thresholds
    while at least `min_correspondences` weighted matches were active. One
    map query per iteration, of the points with weight > 0 alone; it
    searches the kd-tree only for the points whose `certificates` (fresh
    ones unless given) do not prove the answer unchanged. A run out of
    budget diverged when its last step raised the robust cost over the
    matches that step was taken for. Never raises on divergence or
    starvation; inspect `stop`.
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
    planes = map_index.cloud.model.planes
    if certificates is None:
        certificates = NearestCertificates()
    for iteration in range(1, cfg.max_iterations + 1):
        world = transform.apply(points)
        plane, valid = map_index.query(world, cfg.max_correspondence_m, certificates)
        n_corr = int(valid.sum())
        if n_corr < cfg.min_correspondences:
            return IcpResult(transform, "starved", iteration, residual_rms, n_corr)
        p = world[valid]
        matched = plane[valid]
        nrm, offset = planes.normals[matched], planes.offsets[matched]
        w = weights[valid]
        residuals = np.einsum("ij,ij->i", p, nrm) + offset
        jac = residual_jacobian(p, nrm)
        step = huber_newton_step(jac, residuals, w, cfg.huber_scale_m)
        if step is None:
            irls = _kernel_weights(residuals, cfg.huber_scale_m)
            step = gauss_newton_step(jac, residuals, w * irls)
        w_sum = float(w.sum())
        residual_rms = math.sqrt(float((w * residuals**2).sum()) / w_sum)
        omega, v = step[:3], step[3:]
        transform = compose(RigidTransform(rotvec_to_matrix(omega), v), transform)
        if np.linalg.norm(v) < cfg.translation_eps_m and np.linalg.norm(omega) < cfg.rotation_eps_rad:
            return IcpResult(transform, "converged", iteration, residual_rms, n_corr)
    # the last step's effect on its own matches: the same planes at the new pose
    after = np.einsum("ij,ij->i", transform.apply(points[valid]), nrm) + offset
    cost = float((w * kernel_cost(residuals, cfg.huber_scale_m)).sum())
    cost_after = float((w * kernel_cost(after, cfg.huber_scale_m)).sum())
    stop = "budget_exhausted" if cost_after <= cost else "diverged"
    return IcpResult(transform, stop, cfg.max_iterations, residual_rms, n_corr)


ICP_METHODS = ("full", "selective")
SCAN_METHODS = ("full", "filtered", "weighted")

# The failure of a localization whose stage i (0: the full map, 1: the
# reference map) stopped with cause `stop`, by (i, stop).
_STAGE_FAILURES = {
    (0, "starved"): FailureReason.TOO_FEW_FULL_MAP_MATCHES,
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
    the outcome. One set of certificates serves every stage, so the reference
    stage starts from what the full-map stage's searches proved. `ref_map`
    must be built from a validated reference set.
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
    results, certificates = [], NearestCertificates()
    for map_index, icp_cfg in stages:
        results.append(point_to_plane_icp(scan, map_index, prev, icp_cfg, certificates))
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
