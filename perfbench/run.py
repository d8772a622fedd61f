"""Run one benchmark workload through `logitbench.cli.main` and print its
metrics.

    python3 perfbench/run.py --workload grid_short --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics (setup_s, wall_s, cpu_s, peak_rss_mb);
with ``--trace 1`` it holds the per-layer metrics of a traced run.  Inputs
and run outputs live in a temporary directory under ``.perfbench/tmp`` that
is removed at the end; a record of the run (environment, pass times,
failures, and in traced runs the spans) is written to
``.perfbench/results``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5

# One setup sample, run in a fresh interpreter: import the package and parse
# the first operation's arguments, including its config file.
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from logitbench import cli, harness
args = cli.build_parser().parse_args(sys.argv[2:])
if getattr(args, "config", None):
    harness.load_config(args.config)
print(repr(time.perf_counter() - start))
"""


def environment() -> dict:
    """What the numbers depend on; recorded, never set."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def setup_seconds(argv: list[str], cwd: Path) -> float:
    result = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=True)
    return float(result.stdout.strip().splitlines()[-1])


def call(cli, argv: list[str]):
    """Run one CLI call; None on success, else why it failed."""
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed operation, counted
        traceback.print_exc(file=sys.stderr)
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


class Pass:
    """One timed pass of a workload, checked after the clock stops."""

    def __init__(self, cli, workload):
        argvs = workload.ops()
        workload.out.mkdir(parents=True, exist_ok=True)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        errors = [call(cli, argv) for argv in argvs]
        self.wall_s = time.perf_counter() - wall0
        self.cpu_s = time.process_time() - cpu0
        self.attempted, self.failures = workload.check(errors)
        shutil.rmtree(workload.out)


def keep_going(started: float, durations: list[float], seconds: int) -> bool:
    """Start another round when its expected end lies nearer the requested
    run length than stopping now does."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(durations) / 2 < seconds


def tail_percentile(values: list[float]):
    """(p, value) for the highest whole percentile with at least ten samples
    above it, or None when the count allows none above the median."""
    n = len(values)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_untraced(cli, workload, seconds: int) -> tuple[list[Pass], dict, dict]:
    argv0 = workload.ops()[0]
    samples = [setup_seconds(argv0, ROOT) for _ in range(SETUP_SAMPLES)]
    passes: list[Pass] = []
    durations: list[float] = []
    started = time.perf_counter()
    while not durations or keep_going(started, durations, seconds):
        round_start = time.perf_counter()
        passes.append(Pass(cli, workload))
        durations.append(time.perf_counter() - round_start)
    walls = [p.wall_s for p in passes]
    metrics = {
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(p.cpu_s for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    tail = tail_percentile(walls)
    print(f"wall_s median of {len(walls)} passes"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else
             ", too few passes for a tail percentile"))
    print(f"setup_s median of {len(samples)} fresh interpreters: "
          + ", ".join(f"{s:.4f}" for s in samples))
    record = {"setup_samples": samples, "wall_s": walls,
              "cpu_s": [p.cpu_s for p in passes]}
    return passes, metrics, record


def run_traced(cli, workload, seconds: int) -> tuple[list[Pass], dict, dict, list[str]]:
    import layers
    import spans
    recorder = spans.Recorder()
    plain: list[Pass] = []
    traced: list[Pass] = []
    durations: list[float] = []
    started = time.perf_counter()
    while not durations or keep_going(started, durations, seconds):
        round_start = time.perf_counter()
        plain.append(Pass(cli, workload))
        installed = spans.install(recorder)
        try:
            traced.append(Pass(cli, workload))
        finally:
            installed.restore()
        durations.append(time.perf_counter() - round_start)
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics, absent = layers.derive(recorder, len(traced), traced_wall / plain_wall - 1.0,
                            workload.name)
    unfired = layers.unfired(recorder, workload.expected_spans)
    share = layers.shares(recorder, len(traced), traced_wall)
    print(f"traced {len(traced)} passes: median {traced_wall:.4f} s traced, "
          f"{plain_wall:.4f} s untraced, {len(recorder.spans)} spans")
    print("time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in share.items()))
    for name, reason in absent.items():
        print(f"absent {name}: {reason}")
    record = {"wall_s": [p.wall_s for p in plain],
              "traced_wall_s": [p.wall_s for p in traced],
              "shares": share, "unfired": unfired, "absent_spans": recorder.absent,
              "absent_metrics": absent,
              "counts": recorder.counts,
              "spans": [[s.name, s.start, s.end, s.parent, s.info] for s in recorder.spans]}
    failures = [f"expected span {name} never ran" for name in unfired]
    return plain + traced, metrics, record, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "logitbench" / "__init__.py").is_file():
        print(f"perfbench: no logitbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    state = ROOT / ".perfbench"
    (state / "tmp").mkdir(parents=True, exist_ok=True)
    (state / "results").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state / "tmp"))
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{work.name.rsplit('-', 1)[1]}"
    record_path = state / "results" / f"{stamp}.json"
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        workload.prepare()
        env = environment()
        print(f"env {json.dumps(env)}")
        from logitbench import cli
        if args.trace:
            passes, metrics, record, extra = run_traced(cli, workload, args.seconds)
        else:
            passes, metrics, record = run_untraced(cli, workload, args.seconds)
            extra = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [msg for p in passes for msg in p.failures] + extra
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"workload {args.workload}, seed {args.seed}"
          + (f" (config seed {workload.config_seed})" if workload.config_seed is not None else "")
          + f": {attempted} operations, {failed} failed, failed_frac {failed / attempted:.6g}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    record.update(workload=args.workload, seed=args.seed, trace=args.trace, env=env,
                  attempted=attempted, failed=failed, failures=failures, metrics=metrics)
    record_path.write_text(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
