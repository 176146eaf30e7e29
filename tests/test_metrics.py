import numpy as np
import pytest

from planloc.geometry import RigidTransform, rotvec_to_matrix
from planloc.metrics import (
    InsufficientSamplesError,
    MetricsReport,
    MismatchedTrialsError,
    TrialRecord,
    accuracy_rmse,
    average_executions,
    compute_report,
    failure_rate,
    format_report_row,
    position_repeatability,
    rotation_repeatability,
    write_report_csv,
)
from planloc.registration import FailureReason, IcpResult, LocalizationResult


def localized_record(i, prism_est, prism_true=(0, 0, 0), rotvec=(0, 0, 0)):
    pose = RigidTransform.from_rotvec(rotvec, prism_est)
    result = LocalizationResult(
        transform=pose,
        failure_reason=None,
        stages=(IcpResult(pose, "converged", 3, 0.01, 100),),
    )
    return TrialRecord(
        scan_index=i,
        result=result,
        true_pose=RigidTransform.identity(),
        true_prism=np.asarray(prism_true, dtype=float),
        estimated_prism=np.asarray(prism_est, dtype=float),
    )


def failed_record(i):
    result = LocalizationResult(
        transform=None, failure_reason=FailureReason.FULL_ICP_DIVERGED
    )
    return TrialRecord(
        scan_index=i,
        result=result,
        true_pose=RigidTransform.identity(),
        true_prism=np.zeros(3),
        estimated_prism=None,
    )


def two_pass_covariance(samples: np.ndarray) -> np.ndarray:
    """Brute-force unbiased covariance: explicit mean pass then outer products."""
    n, dim = samples.shape
    mean = np.zeros(dim)
    for s in samples:
        mean += s
    mean /= n
    cov = np.zeros((dim, dim))
    for s in samples:
        d = s - mean
        cov += np.outer(d, d)
    return cov / (n - 1)


def symmetric_eigenvalues_3x3(a: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of a symmetric 3x3 matrix (trigonometric form)."""
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    if p1 == 0:
        return np.sort(np.diag(a))
    q = np.trace(a) / 3.0
    p2 = np.sum((np.diag(a) - q) ** 2) + 2 * p1
    p = np.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = np.clip(np.linalg.det(b) / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    eig_hi = q + 2 * p * np.cos(phi)
    eig_lo = q + 2 * p * np.cos(phi + 2 * np.pi / 3.0)
    return np.sort([eig_lo, np.trace(a) - eig_hi - eig_lo, eig_hi])


class TestPositionRepeatability:
    def test_identical_estimates(self):
        records = [localized_record(i, [1.0, 2.0, 3.0]) for i in range(5)]
        out = position_repeatability(records)
        assert out.max_eigenvalue == 0.0
        assert out.trace == 0.0

    def test_two_point_line_segment(self):
        # +-1 mm along x: two-point sample covariance is 2 mm^2
        records = [
            localized_record(0, [+0.001, 0, 0]),
            localized_record(1, [-0.001, 0, 0]),
        ]
        out = position_repeatability(records)
        assert out.trace == pytest.approx(2.0, abs=1e-9)
        assert out.max_eigenvalue == pytest.approx(2.0, abs=1e-9)

    def test_isotropic_gaussian_statistics(self):
        rng = np.random.default_rng(0)
        records = [
            localized_record(i, rng.normal(scale=0.001, size=3)) for i in range(10000)
        ]
        out = position_repeatability(records)
        assert abs(out.trace - 3.0) / 3.0 < 0.1
        assert abs(out.max_eigenvalue - 1.0) < 0.1

    def test_needs_two_localized(self):
        with pytest.raises(InsufficientSamplesError):
            position_repeatability([localized_record(0, [0, 0, 0]), failed_record(1)])


class TestRotationRepeatability:
    def test_identical_rotations(self):
        records = [localized_record(i, [0, 0, 0], rotvec=[0.1, 0.2, 0.3]) for i in range(4)]
        out = rotation_repeatability(records)
        assert out.max_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert out.trace == pytest.approx(0.0, abs=1e-12)

    def test_alternating_yaw_residuals(self):
        # yaw +-1 mrad about the mean: covariance of {-1, +1} is 2 mrad^2
        records = [
            localized_record(i, [0, 0, 0], rotvec=[0, 0, sign * 0.001])
            for i, sign in enumerate([+1, -1, +1, -1])
        ]
        out = rotation_repeatability(records)
        assert out.trace == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert out.max_eigenvalue == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_two_sample_hand_value(self):
        records = [
            localized_record(0, [0, 0, 0], rotvec=[0, 0, +0.001]),
            localized_record(1, [0, 0, 0], rotvec=[0, 0, -0.001]),
        ]
        out = rotation_repeatability(records)
        assert out.trace == pytest.approx(2.0, abs=1e-6)
        assert out.max_eigenvalue == pytest.approx(2.0, abs=1e-6)

    def test_small_angle_gaussian_yaw(self):
        rng = np.random.default_rng(1)
        records = [
            localized_record(i, [0, 0, 0], rotvec=[0, 0, rng.normal(scale=0.001)])
            for i in range(10000)
        ]
        out = rotation_repeatability(records)
        assert abs(out.trace - 1.0) < 0.1


class TestAccuracy:
    def test_exact_estimates(self):
        records = [localized_record(i, [1, 1, 0], prism_true=[1, 1, 0]) for i in range(3)]
        assert accuracy_rmse(records) == 0.0

    def test_constant_offset(self):
        records = [
            localized_record(i, [0.01, 0, 0], prism_true=[0, 0, 0]) for i in range(4)
        ]
        assert accuracy_rmse(records) == pytest.approx(10.0, abs=1e-9)

    def test_three_four_hand_value(self):
        records = [
            localized_record(0, [0.003, 0, 0]),
            localized_record(1, [0, 0.004, 0]),
        ]
        assert accuracy_rmse(records) == pytest.approx(3.5355, abs=1e-3)
        assert accuracy_rmse(records) == pytest.approx(np.sqrt((9 + 16) / 2), abs=1e-9)

    def test_needs_one_localized(self):
        with pytest.raises(InsufficientSamplesError):
            accuracy_rmse([failed_record(0)])

    def test_norm_dominates_single_axis(self):
        rng = np.random.default_rng(2)
        records = [localized_record(i, rng.normal(size=3) * 0.01) for i in range(50)]
        total = accuracy_rmse(records)
        for axis in range(3):
            axis_rmse = 1000 * np.sqrt(
                np.mean([r.estimated_prism[axis] ** 2 for r in records])
            )
            assert total >= axis_rmse - 1e-12


class TestFailureRate:
    def test_all_localized(self):
        assert failure_rate([localized_record(i, [0, 0, 0]) for i in range(4)]) == 0.0

    def test_one_of_four(self):
        records = [localized_record(i, [0, 0, 0]) for i in range(3)] + [failed_record(3)]
        assert failure_rate(records) == 25.0

    def test_all_failed(self):
        assert failure_rate([failed_record(i) for i in range(5)]) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            failure_rate([])


class TestOracleEquivalence:
    def test_covariance_against_two_pass(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            samples = rng.normal(scale=2.0, size=(n, 3))
            records = [localized_record(i, s * 0.001) for i, s in enumerate(samples)]
            out = position_repeatability(records)
            cov = two_pass_covariance(samples)
            eigs = symmetric_eigenvalues_3x3(cov)
            assert out.trace == pytest.approx(np.trace(cov), abs=1e-9)
            assert out.max_eigenvalue == pytest.approx(eigs[-1], abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        records = [localized_record(i, rng.normal(size=3) * 0.002) for i in range(20)]
        base = compute_report(records)
        rng.shuffle(records)
        shuffled = compute_report(records)
        for attr in (
            "pos_max_eigenvalue_mm2",
            "pos_trace_mm2",
            "rot_max_eigenvalue_mrad2",
            "rot_trace_mrad2",
            "accuracy_rmse_mm",
            "failure_rate_pct",
        ):
            assert getattr(base, attr) == pytest.approx(getattr(shuffled, attr), abs=1e-9)


class TestAveraging:
    def _report(self, rmse, n_total=10):
        return MetricsReport(1.0, 2.0, 0.5, 1.0, rmse, 10.0, 9.0, n_total)

    def test_identical_reports(self):
        rep = self._report(70.0)
        assert average_executions([rep, rep, rep]) == rep

    def test_mean_of_rmse(self):
        reports = [self._report(60.0), self._report(70.0), self._report(80.0)]
        assert average_executions(reports).accuracy_rmse_mm == pytest.approx(70.0)

    def test_mismatched_totals_rejected(self):
        with pytest.raises(MismatchedTrialsError):
            average_executions([self._report(60.0, 10), self._report(70.0, 12)])

    def test_empty_rejected(self):
        with pytest.raises(InsufficientSamplesError):
            average_executions([])


class TestReportOutput:
    def test_nan_fields_when_too_few_localized(self):
        records = [failed_record(0), failed_record(1), localized_record(2, [0, 0, 0])]
        report = compute_report(records)
        assert np.isnan(report.pos_trace_mm2)
        assert report.failure_rate_pct == pytest.approx(100.0 * 2 / 3)
        assert report.n_localized == 1.0

    def test_csv_shape(self, tmp_path):
        rep = MetricsReport(1.0, 2.0, 0.5, 1.0, 70.0, 10.0, 9.0, 10)
        rows = [("full", "full", rep), ("selective", "filtered", rep)]
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("icp,scan,pos_max_eig_mm2")
        assert len(lines) == 3
        assert lines[1].split(",")[:2] == ["full", "full"]

    def test_row_formatting_deterministic(self):
        rep = MetricsReport(1.23456789, 2.0, 0.5, 1.0, 70.0, 10.0, 9.0, 10)
        assert format_report_row("full", "full", rep) == format_report_row(
            "full", "full", rep
        )
