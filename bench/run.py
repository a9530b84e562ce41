#!/usr/bin/env python3
"""causaloid benchmark: seeded, single-process, closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload compress_bundled --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in its own process (``all`` starts one child process per
workload of ``BENCHMARK.json``, one after the other; ``compress_chain`` runs
only when named). The program is imported from ``src/`` of
the checkout the script sits in; without it the script exits with code 2
and prints no result. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced (``--trace 0``), the per-layer metrics traced
(``--trace 1``). Lines before it name every metric with its unit and
record the machine and run settings; ``bench/out/`` keeps a JSON record of
each run and, for traced runs, the spans.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
# share of the measured time spent in the reference kernel, between operations
REF_SHARE = 0.05
# largest share by which the traced requests' summed self times may differ
# from the latencies measured outside the tracer (the root span's own
# bookkeeping is the only time in one and not the other)
SELF_SUM_TOL = 0.02
# numpy's BLAS pool is the only thread pool; pin it so every commit compared
# runs with the same setting
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the workloads of BENCHMARK.json, which ``all`` runs
WORKLOAD_NAMES = ("compress_bundled", "query", "sample")
# run only when named: a run holds three or four 10-second passes and the
# reference kernel runs only between them, so its figures are not steady;
# its traced run shows the scaling hot spots
EXTRA_WORKLOADS = ("compress_chain",)


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import ``causaloid`` from ``src/``; returns the package and the wall time."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "causaloid")):
        raise ProgramMissing(f"no program sources under {src}")
    sys.path.insert(0, src)
    started = time.perf_counter()
    import causaloid
    import causaloid.cli  # noqa: F401  (not imported by the package itself)
    elapsed = time.perf_counter() - started
    if not os.path.abspath(causaloid.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"causaloid was imported from {causaloid.__file__}")
    return causaloid, elapsed


# ---------------------------------------------------------------------------
# run settings
# ---------------------------------------------------------------------------

def _blas_threads() -> str:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{BLAS_THREADS} (requested through {BLAS_ENV[0]})"


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return {
        "cpu": cpu,
        "nproc": len(affinity) or os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def reference_kernel() -> float:
    """Fixed work in the program's own mix, about 1 ms on a 2-vCPU Xeon VM.

    Tuple-keyed dict updates, float arithmetic and small numpy arrays, as
    in the program's per-exterior loops. It is benchmark code, so no change
    to the program changes its cost: timed between operations, it samples
    the machine's current speed.
    """
    import numpy as np

    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    table: dict = {}
    for i in range(600):
        key = (i & 15, i % 7, i % 3)
        table[key] = table.get(key, 0.0) + (i % 11) * 0.125
    v = np.array([1.0, 0.0])
    total = 0.0
    for _ in range(60):
        v = rotation @ v
        m = np.outer(v, v) + np.eye(2) * 0.5
        total += float(np.linalg.norm(m)) + float(np.sqrt(np.trace(m)))
    return total + len(table)


def measure(wl, seconds: float, tracer, first: int = 0):
    """Closed loop: issue operations until ``seconds`` have passed.

    Only the operation itself is timed: its input is drawn before the
    clock starts and its oracle check runs after the clock stops. An
    exception or a failed check counts the operation as failed, and the
    loop goes on. Between operations the reference kernel runs until its
    total time is ``REF_SHARE`` of the elapsed time, so its timings sample
    the machine's speed all through the run; they are returned with the
    latencies.
    """
    latencies, kinds, failed, ref_times = [], [], 0, []
    ref_total = 0.0
    started = time.perf_counter()
    i = first
    while i == first or time.perf_counter() - started < seconds:
        kind = wl.kind(i)
        ok = False
        case = wl.draw(i)
        with tracer.request_span(kind):
            t0 = time.perf_counter()
            try:
                out = wl.op(i, case)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                out = exc
            dt = time.perf_counter() - t0
        if not isinstance(out, Exception):
            try:
                ok = bool(wl.check(i, out))
            except Exception as exc:  # noqa: BLE001 - counted and reported
                out = exc
        if isinstance(out, Exception) and failed < 3:
            traceback.print_exception(out, file=sys.stderr)
        failed += not ok
        latencies.append(dt)
        kinds.append(kind)
        i += 1
        while ref_total < REF_SHARE * (time.perf_counter() - started):
            t0 = time.perf_counter()
            reference_kernel()
            ref_times.append(time.perf_counter() - t0)
            ref_total += ref_times[-1]
    return latencies, kinds, failed, ref_times


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(cls, cz, import_s: float, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload class in this process and return its result record."""
    import numpy as np
    import tracer as tracing

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{cls.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer() if trace else tracing.NULL_TRACER
    try:
        wl = cls(cz, ROOT, workdir, seed, tracer)
        if trace:
            tracer.install()
        setup_times = []
        for _ in range(SETUP_REPS):
            with tracer.request_span("setup"):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)
        if trace:
            tracer.uninstall()
        setup_requests = set(range(tracer.n_requests)) if trace else set()
        wl.prepare()
        wl.warmup()
        for _ in range(10):
            reference_kernel()  # the first calls load parts of numpy lazily
        # a traced run spends half its time untraced, half traced
        measured_s = seconds / 2 if trace else seconds
        latencies, kinds, failed, ref_times = measure(wl, measured_s, tracing.NULL_TRACER)
        traced = None
        if trace:
            first_traced = tracer.n_requests
            tracer.install()
            try:
                t_lat, _, t_failed, _ = measure(wl, measured_s, tracer,
                                                first=len(latencies))
            finally:
                tracer.uninstall()
            traced = (set(range(first_traced, tracer.n_requests)), t_lat)
            failed += t_failed
            attempted = len(latencies) + len(t_lat)
        else:
            attempted = len(latencies)
        failed = max(failed, wl.finish(attempted))
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": cls.name,
        "seed": seed,
        "run_seconds": seconds,
        "trace": bool(trace),
        "machine": machine_info(),
        "closed_loop": "one caller, no threads of its own",
        "warmup": cls.warmup_note,
        "setup_reps": SETUP_REPS,
        "operation": cls.op_unit,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
    }
    if trace:
        requests, t_lat = traced
        record.update(traced_results(tracer, requests, setup_requests, latencies, t_lat))
        record["correct"] = record["correct"] and record["trace_summary"]["self_sum_ok"]
        trace_path = os.path.join(OUT, f"trace-{cls.name}-seed{seed}.jsonl")
        tracer.dump(trace_path)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        setup_s = import_s + float(np.median(setup_times))
        record.update(untraced_results(wl, setup_s, import_s, latencies, kinds, ref_times,
                                       rss, failed, attempted))
    return record


def untraced_results(wl, setup_s, import_s, latencies, kinds, ref_times, rss, failed,
                     attempted) -> dict:
    """End-to-end metrics, the workload-specific named metrics and per-kind latencies."""
    mean_op = sum(latencies) / len(latencies)
    mean_ref = sum(ref_times) / len(ref_times)
    # the operation's mean cost in runs of the reference kernel timed in the
    # same stretch of the run: a change of machine speed moves both
    op_cost_ref = mean_op / mean_ref
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_cost_ref": (op_cost_ref, "ref"),
        "peak_rss_mb": (rss, "MB"),
    }
    named = {
        "setup_s": (setup_s, "s",
                    f"import {import_s:.4f} s + median of {SETUP_REPS} set-ups"),
        **wl.extra_metrics(latencies),
        "ops_per_s": (1.0 / mean_op, "1/s", "per busy second, wall clock, not normalised"),
        "op_cost_ref": (op_cost_ref, "ref",
                        f"mean {wl.op_unit} {mean_op * 1e3:.4g} ms / mean reference kernel "
                        f"{mean_ref * 1e3:.4g} ms (n={len(ref_times)})"),
        "peak_rss_mb": (rss, "MB", "whole process"),
        "error_rate": (failed / attempted, "fraction",
                       f"{failed} failed of {attempted} attempted"),
    }
    by_kind: dict[str, list[float]] = {}
    for t, k in zip(latencies, kinds):
        by_kind.setdefault(k, []).append(t)
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in named.items()},
        "latencies_s": latencies,
        "reference_kernel_s": ref_times,
        "per_kind": {
            k: {"n": len(v), "p50_s": percentile(v, 50)} for k, v in sorted(by_kind.items())
        },
    }


def traced_results(tracer, requests, setup_requests, latencies, t_lat) -> dict:
    """Per-layer metrics as means per traced operation, plus the trace summary."""
    import tracer as tracing

    summary = tracing.summarize(tracer, requests)
    setup_summary = tracing.summarize(tracer, setup_requests)
    n = max(len(requests), 1)
    units = tracing.per_layer_units()
    totals = summary["totals"]
    values = {name: totals.get(name, 0.0) / n for name in units}
    scanned = totals.get("tables.greedy_rows_scanned", 0.0)
    values["tables.greedy_keep_ratio"] = (
        totals.get("tables.greedy_rows_kept", 0.0) / scanned if scanned else 0.0
    )
    values["trace.spans"] = summary["n_spans"] / n
    untraced_p50 = percentile(latencies, 50)
    values["trace.overhead_s"] = percentile(t_lat, 50) - untraced_p50
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced_p50
    # the per-layer self times add up to the requests' root spans by
    # construction; compare them with the latencies measure() timed outside
    # the tracer for the same operations
    self_total = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    measured_total = float(sum(t_lat))
    self_sum_gap = abs(self_total - measured_total) / measured_total
    return {
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "trace_summary": {
            "requests": len(requests),
            "self_sum_s": self_total,
            "measured_s": measured_total,
            "self_sum_gap": self_sum_gap,
            "self_sum_ok": self_sum_gap <= SELF_SUM_TOL,
            "per_tag": {
                tag: {k: v / summary["tag_requests"][tag] for k, v in sorted(t.items())}
                for tag, t in summary["by_tag"].items()
            },
            "per_tag_requests": summary["tag_requests"],
            "setup_per_rep": {
                k: v / SETUP_REPS for k, v in sorted(setup_summary["totals"].items())
            },
            "untraced_op_p50_s": untraced_p50,
            "traced_op_p50_s": percentile(t_lat, 50),
        },
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_record(record: dict) -> None:
    m = record["machine"]
    print(f"# workload={record['workload']} seed={record['seed']} "
          f"seconds={record['run_seconds']} trace={int(record['trace'])} "
          f"operation={record['operation']} warmup='{record['warmup']}' "
          f"setup_reps={record['setup_reps']}")
    print(f"# machine: cpu='{m['cpu']}' nproc={m['nproc']} python={m['python']} "
          f"numpy={m['numpy']} blas='{m['blas']}' blas_threads={m['blas_threads']} "
          f"commit={m['git_commit']}")
    if not record["trace"]:
        for name, item in record["named"].items():
            print(f"{name:<20} {item['value']:<14.6g} {item['unit']:<9} {item['note']}")
        if len(record["per_kind"]) > 1:
            print("# median latency per operation kind: " + ", ".join(
                f"{k}={v['p50_s'] * 1e6:.1f} us (n={v['n']})"
                for k, v in record["per_kind"].items()))
        return
    ts = record["trace_summary"]
    print(f"# traced requests={ts['requests']}: summed self times {ts['self_sum_s']:.6g} s "
          f"vs latencies measured outside the tracer {ts['measured_s']:.6g} s, gap "
          f"{ts['self_sum_gap']:.3g} ({'ok' if ts['self_sum_ok'] else 'MISMATCH'}); op p50 "
          f"untraced {ts['untraced_op_p50_s']:.6g} s, traced {ts['traced_op_p50_s']:.6g} s")
    for name, item in record["metrics"].items():
        print(f"{name:<44} {item['value']:<14.6g} {item['unit']}")
    print("# per request kind (mean per request of that kind; 'unattributed' is the share"
          " of its self time in the harness's own spans, outside every wrapped function):")
    for tag, values in sorted(ts["per_tag"].items(), key=lambda kv: str(kv[0])):
        shown = ", ".join(f"{k}={v:.4g}" for k, v in values.items() if v)
        self_s = sum(v for k, v in values.items() if k.endswith(".self_s"))
        share = values.get("bench.self_s", 0.0) / self_s if self_s else 0.0
        print(f"#   {tag} (n={ts['per_tag_requests'][tag]}, unattributed {share:.3f}): {shown}")
    shown = ", ".join(f"{k}={v:.4g}" for k, v in ts["setup_per_rep"].items() if v)
    print(f"#   setup (per set-up): {shown}")


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def run_all(args) -> int:
    """One child process per workload, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"workload {name} exited with code {proc.returncode}\n")
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, item in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = item
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        cz, import_s = import_program()
    except (ProgramMissing, ImportError) as exc:
        sys.stderr.write(f"error: cannot import the program: {exc}\n")
        return 2
    sys.path.insert(0, HERE)
    import workloads

    record = execute(workloads.WORKLOADS[args.workload], cz, import_s, args.seed,
                     args.seconds, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
