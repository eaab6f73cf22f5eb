"""Layered benchmark for cptgroup.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload verify-cold|query-mix|dense-algebra \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the next operation starts
when the previous one ends, until S seconds have passed.  With --trace 0
the last line of standard output is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, taken
from a traced replay of the operations.  The metrics and their units are
declared in BENCHMARK.json.  Raw samples and run metadata go to
.bench_out/<workload>-seed<N>[-trace].json.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the package is not installed: it runs from the checkout's sources, as
# the tier-1 suite does
if not (SRC / "cptgroup" / "__init__.py").is_file():
    sys.exit(f"error: no cptgroup sources under {SRC}")
sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from calibration import scaled  # noqa: E402

SETUP_RUNS = 7
SETUP_CODE = ("import cptgroup\n"
              "from cptgroup import verify\n"
              "verify.Context()\n"
              "print('ready', flush=True)\n")

# prefixes of the per-layer metrics each workload is predicted to use;
# a traced run reports any of them that stays at zero
PREDICTED = {
    "verify-cold": ("scalars.", "matrices.", "solver.", "groups.",
                    "matrix_groups.", "operator_group.", "verify.",
                    "cli.verify."),
    "query-mix": ("groups.FiniteGroup.", "groups.find_isomorphism.",
                  "groups.extend_generator_images.", "matrix_groups.",
                  "operator_group.", "verify.Context.", "cli.table.",
                  "cli.solve.", "cli.cycles.", "cli.identify."),
    "dense-algebra": ("scalars.", "matrices.Mat4.", "matrices.GammaRep.",
                      "matrices.classify.", "solver.solve_system."),
}


def measure_setup(env: dict) -> list[dict]:
    """Seconds from spawning a fresh interpreter to `import cptgroup`
    plus the first `verify.Context()` being built, SETUP_RUNS times, each
    with the calibration around it.  One unrecorded run first writes the
    bytecode caches."""
    samples = []
    cal = calibration.calibrate()
    for k in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE],
                                stdout=subprocess.PIPE, cwd=ROOT, env=env)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError("set-up child did not build a Context")
        prev, cal = cal, calibration.calibrate()
        if k:
            samples.append({"wall_s": elapsed, "cal_s": (prev + cal) / 2})
    return samples


def closed_loop(wl, seconds: float | None = None, count: int | None = None,
                trace: tracer.Tracer | None = None) -> list[dict]:
    """Run operations back to back, for `seconds` or `count` operations,
    with the calibration between each two.  With `trace`, each operation
    runs traced, and its spans carry its index as their run id."""
    ops: list[dict] = []
    cal = calibration.calibrate()
    start = time.perf_counter()
    while (len(ops) < count if count is not None
           else time.perf_counter() - start < seconds):
        i = len(ops)
        item = wl.items[i % len(wl.items)]
        if trace is not None:
            trace.run = i
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out, error = wl.run(item, traced=trace is not None), None
        except Exception as exc:   # recorded as a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        w1, c1 = time.perf_counter(), time.process_time()
        prev, cal = cal, calibration.calibrate()
        op = {"index": i, "item": item, "wall_s": w1 - w0,
              "cpu_s": c1 - c0, "cal_s": (prev + cal) / 2, "out": out,
              "error": error}
        if wl.spawns and out:
            # a child is timed without its pauses and scaled by the
            # kernel runs made during them
            op["wall_s"] -= out["paused_s"]
            op["cpu_s"] = out["cpu_s"]
            if out["cal_samples"]:
                op["cal_s"] = statistics.mean(out["cal_samples"])
        ops.append(op)
    return ops


def peak_rss_kb(wl, ops: list[dict]) -> int:
    if wl.spawns:
        return max(op["out"]["rss_kb"] for op in ops if op["out"])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer there is no such percentile; the maximum is
    reported instead, marked as percentile 100 with no samples beyond."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return {"value": s[-1], "percentile": 100.0, "samples": n,
                "beyond": 0}
    return {"value": s[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n, "beyond": 10}


def check_ops(wl, ops: list[dict]) -> list[dict]:
    failures = []
    for op in ops:
        reason = op["error"] or wl.check(op["item"], op["out"])
        if reason:
            failures.append({"index": op["index"], "item": repr(op["item"]),
                             "reason": reason})
    return failures


def error_rate(attempted: int, failures: list) -> float:
    return len(failures) / attempted


def end_to_end(ops, failures, setup, rss_kb) -> tuple[dict, dict]:
    walls = [scaled(op) * 1e3 for op in ops]
    cpus = [scaled(op, "cpu_s") * 1e3 for op in ops]
    t = tail(walls)
    metrics = {
        "setup_s": statistics.median(scaled(s) for s in setup),
        "op_p50_ms": statistics.median(walls),
        "op_tail_ms": t["value"],
        # one closed-loop client, so throughput is ops over the time
        # spent in them (the calibration between ops is left out)
        "ops_per_s": (len(ops) - len(failures)) / (sum(walls) / 1e3),
        "op_cpu_ms": statistics.median(cpus),
        "peak_rss_mb": rss_kb / 1024,
        "success_rate": 1 - error_rate(len(ops), failures),
    }
    raw = {"setup": setup, "ops": [
               {k: op[k] for k in ("wall_s", "cpu_s", "cal_s")} for op in ops],
           "op_wall_ms_scaled": walls, "op_cpu_ms_scaled": cpus,
           "op_tail": {k: v for k, v in t.items() if k != "value"},
           "error_rate": error_rate(len(ops), failures)}
    return metrics, raw


def traced_run(wl, seconds: float, spans_path: Path) -> tuple[dict, list,
                                                               dict]:
    """Untraced operations for half the time, then the same operations
    again under the tracer, whose spans are written to `spans_path`.  The
    per-layer metrics come from the second pass, in raw seconds;
    `trace.overhead_s` is the scaled wall-time difference per operation
    between the passes."""
    plain = closed_loop(wl, seconds=seconds / 2)
    n = len(plain)
    t = tracer.Tracer()
    if not wl.spawns:
        t.install()
    try:
        traced = closed_loop(wl, count=n, trace=t)
    finally:
        t.uninstall()
    if wl.spawns:   # each child wrote its own trace
        dumps = [op["out"]["trace"] for op in traced if op["out"]]
        for op, dump in zip(traced, dumps):
            for span in dump["spans"]:
                span[4] = op["index"]
    else:
        dumps = [t.dump()]
    merged = tracer.merge(dumps)
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "run"],
         "processes": merged["spans"]}) + "\n")
    metrics = tracer.layer_metrics(merged, n)
    metrics["trace.overhead_s"] = (sum(map(scaled, traced))
                                   - sum(map(scaled, plain))) / n
    run_all = metrics["verify.run_all.total_s"]
    stages = sum(metrics[f"verify.stage.{s}.total_s"] for s in tracer.STAGES)
    raw = {"ops": n, "missing": merged["missing"],
           "plain": [{k: op[k] for k in ("wall_s", "cal_s")} for op in plain],
           "traced": [{k: op[k] for k in ("wall_s", "cal_s")}
                      for op in traced],
           "run_all_unaccounted_s": (run_all - stages
                                     - metrics["verify.Context.init.total_s"]
                                     if run_all else None)}
    return metrics, plain + traced, raw


def metadata() -> dict:
    src = SRC / "cptgroup"
    return {"git_sha": git_sha(), "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted(src.rglob("*.py")))}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    phases = {}          # wall time of each phase of this run
    t = time.perf_counter()
    setup = measure_setup(workloads.child_env(ROOT))
    phases["setup_s"], t = time.perf_counter() - t, time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.seconds,
                                            out_dir)
    wl.warm_up()
    phases["inputs_s"], t = time.perf_counter() - t, time.perf_counter()
    if args.trace:
        spans = out_dir / f"{wl.name}-seed{args.seed}-spans.json"
        metrics, ops, raw = traced_run(wl, args.seconds, spans)
        raw["predicted_but_zero"] = [
            m["name"] for m in declared
            if m["name"].startswith(PREDICTED[wl.name])
            and metrics[m["name"]] <= 0]
        raw["setup"] = setup
        phases["ops_s"], t = time.perf_counter() - t, time.perf_counter()
        failures = check_ops(wl, ops)
    else:
        ops = closed_loop(wl, seconds=args.seconds)
        rss_kb = peak_rss_kb(wl, ops)   # before the oracles allocate
        phases["ops_s"], t = time.perf_counter() - t, time.perf_counter()
        failures = check_ops(wl, ops)
        metrics, raw = end_to_end(ops, failures, setup, rss_kb)
    phases["oracle_s"] = time.perf_counter() - t

    detail = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": bool(args.trace),
              "closed_loop_clients": 1, "inputs": len(wl.items),
              "metadata": metadata(), "phases": phases, "metrics": metrics,
              "raw": raw, "failures": failures}
    suffix = "-trace" if args.trace else ""
    detail_path = out_dir / f"{wl.name}-seed{args.seed}{suffix}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    for f in failures[:10]:
        print(f"FAILED op {f['index']}: {f['reason']}", file=sys.stderr)
    for name in raw.get("predicted_but_zero", []):
        print(f"warning: per-layer metric {name} is zero on {wl.name}",
              file=sys.stderr)
    print(f"workload {wl.name} seed {args.seed}: {len(ops)} ops, "
          f"{len(failures)} failed; detail in "
          f"{detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
