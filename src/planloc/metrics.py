"""Evaluation metrics over localization trials: repeatability (covariance
trace and max eigenvalue), prism-accuracy RMSE, failure rate, and averaging
across repeated executions.

Units follow the report columns: position repeatability in mm^2, rotation
repeatability in mrad^2, accuracy in mm, failure rate in percent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .geometry import RigidTransform, matrix_to_rotvec, mean_rotation
from .registration import LocalizationResult


class MetricsError(Exception):
    pass


class InsufficientSamplesError(MetricsError):
    """Not enough localized records for the requested statistic."""


class MismatchedTrialsError(MetricsError):
    """Reports being averaged do not cover the same number of trials."""


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of localizing one scan, with its ground truth."""

    scan_index: int
    result: LocalizationResult
    true_pose: RigidTransform
    true_prism: np.ndarray  # (3,) meters
    estimated_prism: np.ndarray | None  # (3,) meters, present iff localized

    def __post_init__(self):
        if self.result.localized != (self.estimated_prism is not None):
            raise ValueError("estimated prism must be present iff localized")
        object.__setattr__(
            self, "true_prism", np.asarray(self.true_prism, dtype=np.float64).reshape(3)
        )
        if self.estimated_prism is not None:
            object.__setattr__(
                self,
                "estimated_prism",
                np.asarray(self.estimated_prism, dtype=np.float64).reshape(3),
            )


@dataclass(frozen=True)
class SpreadSummary:
    """Covariance summary: largest eigenvalue and trace (trace >= max >= 0)."""

    max_eigenvalue: float
    trace: float


@dataclass(frozen=True)
class MetricsReport:
    """One row of the evaluation table."""

    pos_max_eigenvalue_mm2: float
    pos_trace_mm2: float
    rot_max_eigenvalue_mrad2: float
    rot_trace_mrad2: float
    accuracy_rmse_mm: float
    failure_rate_pct: float
    n_localized: float
    n_total: int


def _localized(records: Sequence[TrialRecord]) -> list[TrialRecord]:
    return [r for r in records if r.result.localized]


def _spread(samples: np.ndarray) -> SpreadSummary:
    cov = np.cov(samples, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    eigvals = np.linalg.eigvalsh(cov)
    return SpreadSummary(max_eigenvalue=float(eigvals[-1]), trace=float(np.trace(cov)))


def position_repeatability(records: Sequence[TrialRecord]) -> SpreadSummary:
    """Spread of estimated prism positions, in mm^2 (unbiased covariance)."""
    loc = _localized(records)
    if len(loc) < 2:
        raise InsufficientSamplesError("position repeatability needs >= 2 localized records")
    positions_mm = np.array([r.estimated_prism for r in loc]) * 1000.0
    return _spread(positions_mm)


def rotation_repeatability(records: Sequence[TrialRecord]) -> SpreadSummary:
    """Spread of estimated rotations about their chordal mean, in mrad^2."""
    loc = _localized(records)
    if len(loc) < 2:
        raise InsufficientSamplesError("rotation repeatability needs >= 2 localized records")
    rotations = np.array([r.result.transform.rotation for r in loc])
    center = mean_rotation(rotations)
    residuals_mrad = np.array(
        [matrix_to_rotvec(center.T @ rot) for rot in rotations]
    ) * 1000.0
    return _spread(residuals_mrad)


def accuracy_rmse(records: Sequence[TrialRecord]) -> float:
    """RMS distance between estimated and true prism positions, in mm."""
    loc = _localized(records)
    if not loc:
        raise InsufficientSamplesError("accuracy needs >= 1 localized record")
    errors = np.array([r.estimated_prism - r.true_prism for r in loc]) * 1000.0
    return float(np.sqrt(np.mean(np.sum(errors**2, axis=1))))


def failure_rate(records: Sequence[TrialRecord]) -> float:
    """Percentage of records whose localization failed."""
    if not records:
        raise InsufficientSamplesError("failure rate needs >= 1 record")
    failed = sum(1 for r in records if not r.result.localized)
    return 100.0 * failed / len(records)


def compute_report(records: Sequence[TrialRecord]) -> MetricsReport:
    """Assemble the full report row; statistics that lack enough localized
    records come out as NaN while the failure rate stays exact."""
    loc = _localized(records)
    try:
        pos = position_repeatability(records)
        rot = rotation_repeatability(records)
    except InsufficientSamplesError:
        pos = rot = SpreadSummary(float("nan"), float("nan"))
    try:
        rmse = accuracy_rmse(records)
    except InsufficientSamplesError:
        rmse = float("nan")
    return MetricsReport(
        pos_max_eigenvalue_mm2=pos.max_eigenvalue,
        pos_trace_mm2=pos.trace,
        rot_max_eigenvalue_mrad2=rot.max_eigenvalue,
        rot_trace_mrad2=rot.trace,
        accuracy_rmse_mm=rmse,
        failure_rate_pct=failure_rate(records),
        n_localized=float(len(loc)),
        n_total=len(records),
    )


def average_executions(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Field-wise arithmetic mean over repeated executions of the same trials."""
    if not reports:
        raise InsufficientSamplesError("need >= 1 report to average")
    totals = {r.n_total for r in reports}
    if len(totals) != 1:
        raise MismatchedTrialsError(f"reports cover different trial counts: {sorted(totals)}")

    means = {
        f.name: float(np.mean([getattr(r, f.name) for r in reports]))
        for f in fields(MetricsReport)
        if f.name != "n_total"
    }
    return MetricsReport(**means, n_total=reports[0].n_total)


REPORT_HEADER = (
    "icp,scan,pos_max_eig_mm2,pos_trace_mm2,rot_max_eig_mrad2,rot_trace_mrad2,"
    "rmse_mm,failure_pct"
)


def format_report_row(icp_method: str, scan_method: str, report: MetricsReport) -> str:
    values = (
        report.pos_max_eigenvalue_mm2,
        report.pos_trace_mm2,
        report.rot_max_eigenvalue_mrad2,
        report.rot_trace_mrad2,
        report.accuracy_rmse_mm,
        report.failure_rate_pct,
    )
    return ",".join([icp_method, scan_method] + [format(v, ".9g") for v in values])


def write_report_csv(rows: Sequence[tuple[str, str, MetricsReport]], path) -> None:
    """Write the method-matrix report in the fixed column order."""
    lines = [REPORT_HEADER]
    lines += [format_report_row(icp, scan, rep) for icp, scan, rep in rows]
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")
