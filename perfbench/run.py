#!/usr/bin/env python3
"""slpwlo end-to-end benchmark.

Builds the benchmark (perfbench/CMakeLists.txt, which builds the slpwlo
library from this source tree in Release mode) into .bench_build/ and runs
one workload:

    python3 perfbench/run.py --workload cold_queries --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  cold_queries    closed loop of 4 clients, one compile query at a time,
                  each with its own KernelContext and no cache
  design_sweep    SweepDriver grid, cache snapshot, warm re-sweep
  measured_sweep  SweepDriver with emitted code compiled, run and timed

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the gated
end-to-end metrics; --trace 1 replays the same points with spans, writes a
Chrome trace-event file under .bench_build/out/ and reports the per-layer
metrics. Per-layer "ms/point" and "count/point" values are totals over the
traced replay divided by the number of replayed points; the exec.*_ms
values are net of the C emission that each CompiledKernel::create call
repeats (timed once per point as codegen.emit).

Steadiness mode runs each workload with seeds 1..N and prints, per
metric, the median, the quartiles and their spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json ("-" for a metric it does not
gate):

    python3 perfbench/run.py --steady 5 --workloads design_sweep --seconds 20

`--steady 1` prints every end-to-end metric of every workload, with its
unit and better-direction, from one run each.

Exit codes: 0 all answers correct, 1 an answer failed a check, 2 the run
could not be set up, 3 the build failed.
"""

import argparse
import fcntl
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "slpwlo_perfbench"
WORKLOADS = ("cold_queries", "design_sweep", "measured_sweep")
RUN_TIMEOUT_S = 170


def tool_env():
    """The compilers (the build's and the JIT's) keep their temporaries
    inside the checkout too."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configure once, then build incrementally; returns False on failure."""
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any((BUILD_DIR / f).exists() for f in ("Makefile", "build.ninja")):
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "slpwlo_perfbench", "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=tool_env())
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-20000:])
                sys.stderr.write(f"perfbench: build step failed: {' '.join(step)}\n")
                return False
    return True


def commit_id():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace, report=None):
    """Run one workload; returns (exit code, stdout text, trace path)."""
    out_dir = BUILD_ROOT / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload}-{seed}.json"
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--corpus", str(ROOT / "kernels"),
               "--scratch", str(BUILD_ROOT / "scratch"),
               "--commit", commit_id()]
    if trace:
        command += ["--trace-out", str(trace_path)]
    if report:
        command += ["--report", str(report)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True, env=tool_env())
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        sys.stderr.write(f"perfbench: {workload} timed out\n")
        return 2, "", trace_path
    return process.returncode, stdout, trace_path


def check_trace(path):
    """The trace must load as Chrome trace-event JSON with point spans."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    for event in spans:
        for key in ("name", "ts", "dur", "pid", "tid", "args"):
            if key not in event:
                raise ValueError(f"trace event without {key}: {event}")
    if not any(e["name"] == "point" for e in spans):
        raise ValueError("trace has no point spans")


def run_one(args):
    if not build():
        return 3
    code, stdout, trace_path = run_binary(args.workload, args.seed, args.seconds,
                                          args.trace == 1)
    lines = stdout.rstrip("\n").split("\n") if stdout else []
    if code in (0, 1) and lines and args.trace == 1:
        try:
            check_trace(trace_path)
        except (OSError, ValueError, KeyError) as error:
            sys.stderr.write(f"perfbench: bad trace {trace_path}: {error}\n")
            result = json.loads(lines[-1])
            result["correct"] = False
            lines[-1] = json.dumps(result)
            code = 1
    if code not in (0, 1):
        # No result without a completed run.
        lines = [line for line in lines if not line.startswith("{")]
    if lines:
        print("\n".join(lines), flush=True)
    return code


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    if not build():
        return 3
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    seeds = range(1, args.steady + 1)
    status = 0
    for workload in workloads:
        values = {}
        meta = {}
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=BUILD_ROOT) as tmp:
                report_path = Path(tmp) / "report.json"
                code, _, _ = run_binary(workload, seed, seconds, args.trace,
                                        report=report_path)
                if code != 0 or not report_path.exists():
                    print(f"{workload} seed {seed}: exit {code}", flush=True)
                    status = 1
                    continue
                report = json.loads(report_path.read_text())
            section = report["per_layer" if args.trace else "end_to_end"]
            for name, metric in section.items():
                meta[name] = (metric["unit"], metric["better"])
                if metric["value"] is not None:
                    values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"{seconds} s each", flush=True)
        print(f"  {'metric':26} {'unit':>11} {'better':>6} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, (unit, better) in meta.items():
            vals = values.get(name)
            if not vals:
                print(f"  {name:26} {unit:>11} {better:>6} {'n/a':>12}")
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = None if args.trace else bounds.get(name)
            if bound is None:
                verdict = "-"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
            print(f"  {name:26} {unit:>11} {better:>6} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {'-' if bound is None else bound:>6}  "
                  f"{verdict}", flush=True)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="run each workload with seeds 1..N and print spreads")
    parser.add_argument("--workloads", help="comma-separated, for --steady")
    args = parser.parse_args()
    if args.steady:
        return steady(args)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
