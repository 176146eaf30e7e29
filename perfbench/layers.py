"""Which planloc functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules. `geometry` is only called from inside the
other layers and gets no span. The benchmark's own code is the `bench` layer;
each measured operation (one request or one run_matrix call) is a
`bench.op` root span, so per-layer self times add up to its wall time.
"""

from __future__ import annotations

import numpy as np

from planloc import cli, experiment, fusion, metrics, model, registration, sensor_sim

from tracing import Target, Tracer

LAYERS = ("registration", "sensor_sim", "fusion", "model", "metrics", "experiment", "cli", "bench")
FAIL_REASONS = tuple(r.value for r in registration.FailureReason)


def _scene_triangles(scene) -> int:
    surfaces = list(scene.as_built.surfaces) + list(scene.clutter)
    return sum(len(s.triangles) for s in surfaces) + sum(
        len(a.surface.triangles) for a in scene.actors
    )


def _lidar_probe(args, kwargs, scan):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    rays = len(spec.ring_elevations_deg) * len(np.arange(0.0, 360.0, spec.azimuth_step_deg))
    return {"rays": rays, "tris": _scene_triangles(args[0]), "hits": len(scan)}


def _camera_probe(args, kwargs, image):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return {
        "rays": spec.width * spec.height,
        "tris": _scene_triangles(args[0]),
        "hits": int(np.isfinite(image.depth).sum()),
    }


def _fuse_probe(args, kwargs, result):
    return {"points_in": len(args[0].points), "points_out": len(result[0])}


def _weights_probe(args, kwargs, scan):
    return {"points_in": len(args[0]), "active": int((scan.weights > 0).sum())}


def _icp_probe(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


def _query_probe(args, kwargs, result):
    return {"points": len(args[1]), "matched": int(result[1].sum())}


def _localize_probe(args, kwargs, result):
    reason = result.failure_reason
    return {"failure": reason.value if reason is not None else None}


def _sample_probe(args, kwargs, cloud):
    return {"points": len(cloud)}


TARGETS = [
    Target(experiment, "load_config", "experiment.load_config"),
    Target(experiment, "run_matrix", "experiment.run_matrix"),
    Target(experiment, "localize_once", "experiment.localize_once"),
    Target(experiment, "assemble_scene", "experiment.assemble_scene"),
    Target(model, "sample_model", "model.sample_model", _sample_probe),
    Target(sensor_sim, "generate_trial_sequence", "sensor_sim.generate_trial_sequence"),
    Target(sensor_sim, "raycast_scan", "sensor_sim.raycast_scan", _lidar_probe),
    Target(sensor_sim, "render_density_image", "sensor_sim.render_density_image", _camera_probe),
    Target(sensor_sim, "read_scan_csv", "sensor_sim.read_scan_csv"),
    Target(sensor_sim, "read_density_pgm", "sensor_sim.read_density_pgm"),
    Target(fusion, "fuse_densities", "fusion.fuse_densities", _fuse_probe),
    Target(fusion, "weights_linear", "fusion.weights", _weights_probe),
    Target(fusion, "weights_binary", "fusion.weights", _weights_probe),
    Target(registration, "localize", "registration.localize", _localize_probe),
    Target(registration, "point_to_plane_icp", "registration.icp", _icp_probe),
    Target(registration.MapIndex, "__init__", "registration.index_build"),
    Target(registration.MapIndex, "query", "registration.nn_query", _query_probe),
    Target(metrics, "compute_report", "metrics.compute_report"),
    Target(cli, "main", "cli.main"),
]

def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(
    tracer: Tracer, frames_by_op: dict[str, int], traced_frame_ms: float, untraced_frame_ms: float
) -> dict:
    """Per-layer metrics from the recorded spans.

    `traced_frame_ms` and `untraced_frame_ms` are the wall time per frame of
    the traced and the untraced operations, measured around them; their
    difference is the tracing overhead.

    Per-call figures (`*_ms` of one function, ratios, iterations) use every
    span, set-up and checks included. Per-frame figures (self times,
    `icp_runs`, `nn_query_ms`, `nn_points`, `ray_tri_tests`) use only the
    spans of the measured operations in `frames_by_op`.
    """
    spans = tracer.spans
    selfs = tracer.self_seconds()
    frames = sum(frames_by_op.values())
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name, measured_only=False):
        return [
            spans[i] for i in by_name.get(name, [])
            if not measured_only or spans[i].op in frames_by_op
        ]

    def mean_ms(name):
        return _mean([s.seconds * 1e3 for s in calls(name)])

    def per_frame(values):
        return _ratio(float(sum(values)), frames)

    # the first ICP run under a localize call is the full-map stage,
    # the second the reference-map stage of selective localization
    stage_ms = {0: [], 1: []}
    seen: dict[int, int] = {}
    for i in by_name.get("registration.icp", []):
        parent = spans[i].parent
        if parent is not None and spans[parent].name == "registration.localize":
            nth = seen.get(parent, 0)
            seen[parent] = nth + 1
            stage_ms.setdefault(nth, []).append(spans[i].seconds * 1e3)

    sims = calls("sensor_sim.raycast_scan") + calls("sensor_sim.render_density_image")
    queries = calls("registration.nn_query")
    fuses = calls("fusion.fuse_densities")
    weights = calls("fusion.weights")
    localizes = calls("registration.localize", measured_only=True)

    overhead_ms = traced_frame_ms - untraced_frame_ms
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, own in zip(spans, selfs):
        if s.op in frames_by_op:
            layer_self[s.layer] += own * 1e3

    out = {
        "registration.localize_ms": mean_ms("registration.localize"),
        "registration.full_stage_ms": _mean(stage_ms[0]),
        "registration.selective_stage_ms": _mean(stage_ms[1]),
        "registration.icp_runs": per_frame([1 for _ in calls("registration.icp", True)]),
        "registration.icp_iterations": _mean(
            [s.attrs["iterations"] for s in calls("registration.icp")]
        ),
        "registration.nn_query_ms": per_frame(
            [s.seconds * 1e3 for s in calls("registration.nn_query", True)]
        ),
        "registration.nn_points": per_frame(
            [s.attrs["points"] for s in calls("registration.nn_query", True)]
        ),
        "registration.match_ratio": _ratio(
            sum(s.attrs["matched"] for s in queries), sum(s.attrs["points"] for s in queries)
        ),
        "registration.index_build_ms": mean_ms("registration.index_build"),
        "registration.localize_calls": float(len(localizes)),
        **{
            f"registration.fail.{r}": float(sum(s.attrs["failure"] == r for s in localizes))
            for r in FAIL_REASONS
        },
        "sensor_sim.raycast_ms": mean_ms("sensor_sim.raycast_scan"),
        "sensor_sim.render_ms": mean_ms("sensor_sim.render_density_image"),
        "sensor_sim.ray_tri_tests": _ratio(
            sum(s.attrs["rays"] * s.attrs["tris"] for s in sims),
            len(calls("sensor_sim.raycast_scan")),
        ),
        "sensor_sim.ray_tri_tests_per_s": _ratio(
            sum(s.attrs["rays"] * s.attrs["tris"] for s in sims), sum(s.seconds for s in sims)
        ),
        "sensor_sim.hit_ratio": _ratio(
            sum(s.attrs["hits"] for s in sims), sum(s.attrs["rays"] for s in sims)
        ),
        "sensor_sim.csv_read_ms": mean_ms("sensor_sim.read_scan_csv"),
        "sensor_sim.pgm_read_ms": mean_ms("sensor_sim.read_density_pgm"),
        "fusion.fuse_ms": mean_ms("fusion.fuse_densities"),
        "fusion.weight_ms": mean_ms("fusion.weights"),
        "fusion.kept_ratio": _ratio(
            sum(s.attrs["points_out"] for s in fuses), sum(s.attrs["points_in"] for s in fuses)
        ),
        "fusion.active_weight_ratio": _ratio(
            sum(s.attrs["active"] for s in weights), sum(s.attrs["points_in"] for s in weights)
        ),
        "model.sample_ms": mean_ms("model.sample_model"),
        "model.map_points": _mean([s.attrs["points"] for s in calls("model.sample_model")]),
        "experiment.assemble_ms": mean_ms("experiment.assemble_scene"),
        "metrics.report_ms": mean_ms("metrics.compute_report"),
        **{f"{layer}.self_ms": _ratio(ms, frames) for layer, ms in layer_self.items()},
        "trace.frame_ms": per_frame([s.seconds * 1e3 for s in calls("bench.op", True)]),
        "trace.untraced_frame_ms": untraced_frame_ms,
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_pct": 100.0 * _ratio(overhead_ms, untraced_frame_ms),
        "trace.spans_per_frame": _ratio(
            sum(1 for s in spans if s.op in frames_by_op), frames
        ),
    }
    return out
