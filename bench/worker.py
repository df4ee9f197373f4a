"""One workload process: set up, run timed passes, check outputs, report.

Started by run.py, one fresh process per workload run. It writes a single
JSON document to --result and nothing that run.py parses to stdout (the
commands it drives print there). Usage:

    python3 bench/worker.py --workload sweep_design --seed 1 --seconds 50 \
        --trace 0 --t0 <time.monotonic() of the parent> --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the path to ./src is set)

import spans as sp  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

MIN_PASSES = 3
# Sampled outputs must match the direct cell sum to this relative error. It is
# far above round-off (about 3e-15 today) and far below any reported figure
# (1e-6 in power is 4e-6 dB), so it accepts reordered or blocked sums.
REF_TOLERANCE = 1e-6


def trace_targets():
    """(layer span name, defining module, function, sizes) for each traced call.

    sizes(args, kwargs, result) gives the span's (cells, points).
    """
    def arg(a, k, i, name):
        return a[i] if len(a) > i else k[name]

    def grid_arg(i, name):
        return lambda a, k, r: (arg(a, k, i, name).cell_count, 0)

    def currents_arg(points):
        return lambda a, k, r: (arg(a, k, 0, "currents").grid.cell_count, points(a, k, r))

    def panel_arg(a, k, r):
        return arg(a, k, 0, "panel").grid.cell_count, 0

    return [
        ("cli.main", "skinlink.cli", "main", None),
        ("analysis.sweep", "skinlink.analysis", "sweep", None),
        ("analysis.evaluate_point", "skinlink.analysis", "evaluate_point", None),
        ("analysis.markers", "skinlink.analysis", "markers", None),
        ("ems.design_panel", "skinlink.ems", "design_panel",
         lambda a, k, r: (r[0].grid.cell_count, 0)),
        ("ems.synthesize_layout", "skinlink.ems", "synthesize_layout", grid_arg(0, "grid")),
        ("ems.gstc_currents", "skinlink.ems", "gstc_currents", panel_arg),
        ("ems.synthesis_mismatch", "skinlink.ems", "synthesis_mismatch", grid_arg(0, "grid")),
        ("pcs.pcs_currents", "skinlink.pcs", "pcs_currents", panel_arg),
        ("field_engine.scattered_field", "skinlink.field_engine", "scattered_field",
         currents_arg(lambda a, k, r: 1)),
        ("field_engine.scattered_field_at_points", "skinlink.field_engine",
         "scattered_field_at_points",
         currents_arg(lambda a, k, r: np.asarray(arg(a, k, 1, "points")).size // 3)),
        ("field_engine.field_cut_map", "skinlink.field_engine", "field_cut_map",
         currents_arg(lambda a, k, r: r.u.size * r.v.size)),
        ("scenario.incident_fields", "skinlink.scenario", "incident_fields",
         lambda a, k, r: (np.broadcast(arg(a, k, 1, "x"), arg(a, k, 2, "y")).size, 0)),
        ("aperture.discretize", "skinlink.aperture", "discretize",
         lambda a, k, r: (r.cell_count, 0)),
        ("aperture.export_layout", "skinlink.aperture", "export_layout", grid_arg(1, "grid")),
        ("aperture.import_layout", "skinlink.aperture", "import_layout",
         lambda a, k, r: (r[0].values.size, 0)),
    ]


def layer_metrics(spans, traced_passes: int, workload) -> dict[str, float]:
    """Per-pass layer figures from the spans of the traced passes."""
    stats = sp.summarize(spans)
    empty = sp.LayerStats(durations=[])
    n = max(1, traced_passes)

    def get(name):
        return stats.get(name, empty)

    def per_cell(name):
        st = get(name)
        return st.self_s * 1e9 / st.cells if st.cells else 0.0

    m = {}
    for name in ("scenario.incident_fields", "field_engine.scattered_field",
                 "analysis.evaluate_point", "aperture.discretize"):
        m[f"{name}.calls"] = get(name).calls / n
    for name in ("scenario.incident_fields", "aperture.export_layout",
                 "aperture.import_layout", "ems.design_panel", "ems.synthesize_layout",
                 "ems.gstc_currents", "ems.synthesis_mismatch", "pcs.pcs_currents",
                 "field_engine.scattered_field", "field_engine.scattered_field_at_points",
                 "field_engine.field_cut_map", "analysis.sweep", "analysis.markers",
                 "cli.main"):
        m[f"{name}.self_s"] = get(name).self_s / n
    for name in ("scenario.incident_fields", "aperture.export_layout",
                 "ems.synthesize_layout", "field_engine.scattered_field"):
        m[f"{name}.ns_per_cell"] = per_cell(name)
    at_points = get("field_engine.scattered_field_at_points")
    m["field_engine.scattered_field_at_points.cell_points"] = at_points.cell_points / n
    m["field_engine.scattered_field_at_points.ns_per_cell_point"] = (
        at_points.self_s * 1e9 / at_points.cell_points if at_points.cell_points else 0.0)
    sweep_spans = [s for s in spans if s.name == "analysis.sweep"]
    workers = [len({c.thread for c in spans
                    if c.parent == s.id and c.name == "analysis.evaluate_point"})
               for s in sweep_spans]
    m["analysis.sweep.workers"] = max(workers, default=0)
    m["analysis.sweep.failed_rows"] = workload.failed_rows / workload.passes
    m["analysis.evaluate_point.p50_ms"] = sp.median_ms(get("analysis.evaluate_point").durations)
    m["analysis.markers.probes"] = len(
        sp.children_of(spans, "analysis.markers", "analysis.evaluate_point")) / n
    m["cli.artifact_bytes"] = workload.artifact_bytes
    return m


def _blas() -> tuple[str, int | None]:
    """BLAS library name and its thread count, when the library reports one."""
    import ctypes

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def host_facts() -> dict:
    from skinlink import analysis

    blas, blas_threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "analysis_worker_count_19": analysis.worker_count(19),
        "SKINLINK_THREADS": os.environ.get("SKINLINK_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(workload, args.seconds, args.trace == 1))
        result["host"] = host_facts()
    Path(args.result).write_text(json.dumps(result), encoding="ascii")
    return 0


def measure(workload, seconds: float, traced: bool) -> dict:
    """Warm-up pass, then timed passes for `seconds`; checks after every pass.

    Each command of an untraced pass is timed on its own (wall and process
    CPU seconds). In a traced run, passes alternate between untraced and
    traced, so the tracing overhead is measured on the same process and inputs.
    """
    outcome = Outcome()
    workload.run_pass()
    workload.check_pass(outcome)
    tracer = sp.Tracer() if traced else None
    commands = range(workload.command_count())
    command_walls, command_cpus = [[] for _ in commands], [[] for _ in commands]
    walls, cpus, traced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_PASSES * (2 if traced else 1) or time.perf_counter() < deadline:
        if traced and i % 2 == 1:
            tracer.install("skinlink", trace_targets())
            t = time.perf_counter()
            try:
                workload.run_pass()
            finally:
                traced_walls.append(time.perf_counter() - t)
                tracer.uninstall()
        else:
            for j in commands:
                t, c = time.perf_counter(), time.process_time()
                workload.run_command(j)
                command_walls[j].append(time.perf_counter() - t)
                command_cpus[j].append(time.process_time() - c)
            walls.append(sum(w[-1] for w in command_walls))
            cpus.append(sum(c[-1] for c in command_cpus))
        workload.check_pass(outcome)
        i += 1
    try:
        ref_err = workload.reference_error(outcome)
    except Exception as exc:  # missing or malformed outputs: a failed check
        outcome.check(False, f"{workload.name}: reference comparison failed: {exc!r}")
        ref_err = 1.0
    outcome.check(ref_err <= REF_TOLERANCE,
                  f"{workload.name}: reference relative error {ref_err:.3g}")
    out = {
        "walls": walls,
        "cpus": cpus,
        "command_walls": command_walls,
        "command_cpus": command_cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_rel_err": ref_err,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "passes": i + 1,
    }
    if traced:
        layers = layer_metrics(tracer.spans, len(traced_walls), workload)
        layers["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        out["per_layer"] = layers
    return out


if __name__ == "__main__":
    sys.exit(main())
