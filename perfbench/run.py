"""homct benchmark: one workload, closed loop, one fresh process per sample.

    python3 perfbench/run.py --workload a2-compare --seed 1 --seconds 24 --trace 0

Run from anywhere; the program under test is the checkout's ``src/homct``.
The seed relabels the inputs (see gen.py).  A single client runs samples back
to back: each sample is a fresh single-threaded process running the workload
once (child.py), and each answer is checked against the workload's oracle
(workloads.py).  Samples start while the run has more than half a sample's
time left of ``--seconds``.

With ``--trace 0`` the run first launches a few set-up-only processes, then
full samples, and reports the median of each end-to-end metric.  With
``--trace 1`` it alternates untraced and traced samples and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from workloads import WORKLOADS, check  # noqa: E402

SETUP_PROBES = 5  # set-up-only processes per untraced run, for the setup_s median
DEADLINE_S = 165  # no sample starts or keeps running past this, so a run ends within 180 s
END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


class Sample:
    """One child process: its timings, rusage and the problems with its answer."""

    def __init__(self, traced, wall, marks, rusage, problems):
        self.traced = traced
        self.wall_s = wall
        self.setup_s = marks.get("setup_done", float("nan")) - marks["launch"]
        self.solve_s = marks.get("solve_done", float("nan")) - marks.get("setup_done", 0.0)
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mb = rusage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
        self.layers = marks.get("layers", {})
        self.problems = problems


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(HERE, ".work", f"{workload}-s{seed}")
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        self.env.pop("HOMCT_THREADS", None)
        self.started = time.monotonic()

    def generate(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        algebra = WORKLOADS[self.workload].algebra
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), self.work,
                        "--seed", str(self.seed), "--only", algebra],
                       env=self.env, check=True, stdout=subprocess.DEVNULL, timeout=120)

    def sample(self, setup_only: bool = False, traced: bool = False) -> Sample:
        self.count += 1
        stem = os.path.join(self.work, f"{self.count:03d}")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
                "--inputs", self.work, "--report", stem + ".report.json",
                "--marks", stem + ".marks.json"]
        if setup_only:
            argv.append("--setup-only")
        if traced:
            argv += ["--spans", stem + ".spans.npz"]
        limit = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        with open(stem + ".stderr", "w") as err:
            launch = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            code, rusage = _wait(proc, limit)
        problems = [] if code == 0 else [f"exit code {code}"]
        marks = {"launch": launch}
        report = None
        try:
            with open(stem + ".marks.json") as fh:
                marks.update(json.load(fh))
            if not setup_only:
                with open(stem + ".report.json") as fh:
                    report = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"no output: {exc}")
        if report is not None:
            try:
                problems += check(self.workload, report, self.seed)
            except (KeyError, TypeError) as exc:
                problems.append(f"malformed report: {exc!r}")
        wall = time.monotonic() - launch
        sample = Sample(traced, wall, marks, rusage, problems)
        kind = "setup" if setup_only else "traced" if traced else "sample"
        print(f"{kind} {self.count}: wall {wall:.3f}s setup {sample.setup_s:.3f}s "
              f"cpu {sample.cpu_s:.3f}s rss {sample.peak_rss_mb:.1f}MiB", flush=True)
        if problems:
            with open(stem + ".stderr") as fh:
                tail = fh.read()[-2000:]
            print(f"sample {self.count} failed: {problems}\n{tail}", file=sys.stderr)
        return sample

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _wait(proc: subprocess.Popen, limit: float):
    """Wait for the child and return (exit code, its own rusage).

    The child is killed after ``limit`` seconds.  ``waitid(WNOWAIT)`` waits
    without reaping, so the watchdog can never signal a recycled pid.
    """
    lock = threading.Lock()
    done = False

    def kill():
        with lock:
            if not done:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(limit, kill)
    timer.start()
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    with lock:
        done = True
    timer.cancel()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def _keep_going(runner: Runner, seconds: float, last: Sample) -> bool:
    """Closed loop: start another sample if it would mostly fit in the run."""
    left = seconds - runner.elapsed()
    fits_deadline = runner.elapsed() + 1.5 * last.wall_s < DEADLINE_S
    return left > 0.5 * last.wall_s and fits_deadline


def _median(samples, attr):
    return statistics.median(getattr(s, attr) for s in samples)


def run_untraced(runner: Runner, seconds: float):
    probes = [runner.sample(setup_only=True) for _ in range(SETUP_PROBES)]
    if any(p.problems for p in probes):
        raise SystemExit("set-up failed: " + "; ".join(probes[0].problems or ["see above"]))
    samples = [runner.sample()]
    while _keep_going(runner, seconds, samples[-1]):
        samples.append(runner.sample())
    good = [s for s in samples if not s.problems] or samples
    metrics = {name: _median(good, name) for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(s.setup_s for s in probes + good)
    units = dict(END_TO_END)
    counts = {name: len(good) for name in END_TO_END}
    counts["setup_s"] = len(probes) + len(good)
    return samples, metrics, units, counts


def run_traced(runner: Runner, seconds: float):
    samples = [runner.sample(), runner.sample(traced=True)]
    while _keep_going(runner, seconds, samples[-1]):
        samples.append(runner.sample(traced=len(samples) % 2 == 1))
    plain = [s for s in samples if not s.traced and not s.problems] or samples[::2]
    traced = [s for s in samples if s.traced and not s.problems] or samples[1::2]
    layers = [s.layers for s in traced if s.layers]
    metrics, units = {}, {}
    for name, first in (layers[0] if layers else {}).items():
        values = [lay[name]["value"] for lay in layers]
        units[name] = first["unit"]
        if units[name] == "s":
            metrics[name] = statistics.median(values)
        else:  # counts and ratios of counts repeat exactly
            if len(set(values)) > 1:
                traced[-1].problems.append(f"{name} differs between traced runs: {values}")
            metrics[name] = values[0]
    overhead = _median(traced, "wall_s") - _median(plain, "wall_s")
    metrics["trace.overhead_s"], units["trace.overhead_s"] = overhead, "s"
    metrics["trace.overhead_frac"] = overhead / _median(plain, "wall_s")
    units["trace.overhead_frac"] = "ratio"
    counts = {name: len(layers) for name in metrics}
    counts["trace.overhead_s"] = counts["trace.overhead_frac"] = len(traced) + len(plain)
    return samples, metrics, units, counts


def main() -> int:
    ap = argparse.ArgumentParser(description="homct benchmark, one workload")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "homct", "__init__.py")):
        print(f"no homct sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    runner.generate()
    runner.sample(setup_only=True)  # untimed: compiles bytecode, warms the file cache
    runner.started = time.monotonic()
    run = run_traced if args.trace else run_untraced
    samples, metrics, units, counts = run(runner, args.seconds)
    failed = sum(1 for s in samples if s.problems)
    print(f"{args.workload} seed={args.seed} samples={len(samples)} "
          f"elapsed={runner.elapsed():.1f}s")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {units[name]:6s} n={counts[name]}")
    print(f"  {'fail_frac':32s} {failed / len(samples):>14.6g} {'ratio':6s} n={len(samples)}")
    metrics = {k: v if v == v and abs(v) != float("inf") else None for k, v in metrics.items()}
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
