"""relfrag benchmark: four workloads, end-to-end metrics untraced, and
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload {certify,discover,decide,cli} \\
        --seed N --seconds S --trace {0,1} [--out result.json]

Run from the root of a checkout that holds `src/relfrag`.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric
by name and unit, the failure share and the environment.  Exits 1 when
any output failed its check, 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from bisect import insort
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# numpy's BLAS pool would start one thread per core in every process, the
# cli children included; relfrag never calls BLAS (its matrices are
# integer), so the pool only adds thread start-up whose cost depends on
# the host scheduler.  The benchmark runs on one thread throughout.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    src = ROOT / "src"
    if not (src / "relfrag" / "__init__.py").is_file():
        _fail(f"no program under {src}; run from the root of a relfrag checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import relfrag
    if Path(relfrag.__file__).resolve().parent != (src / "relfrag").resolve():
        _fail(f"imported relfrag from {relfrag.__file__}, not from {src}")


def environment(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "seed": seed, "threads": 1,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "loadavg_1m": _loadavg()}


def _loadavg() -> float:
    try:
        with open("/proc/loadavg") as fh:
            return float(fh.read().split()[0])
    except OSError:
        return float("nan")


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh process to the end of the lazy set-up, SETUP_PROBES times:
    interpreter start, `import relfrag`, and a first probe call, minus
    the time of a second, warm probe call."""
    env = dict(os.environ)
    out = []
    for i in range(SETUP_PROBES):
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed + 2 * i)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(rec["ready"] - spawn - rec["second"])
    return out


def _quantile(sorted_values: list[float], q: float) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]


def _stop(started: float, seconds: float, typical: float) -> bool:
    # start another unit only while at most half of it would overrun
    return time.perf_counter() - started + typical / 2 >= seconds


class Tally:
    def __init__(self) -> None:
        self.times: list[float] = []       # sorted
        self.total = 0.0
        self.attempted = self.failed = self.decided = 0
        self.notes: list[str] = []

    def add(self, seconds: float, unit) -> None:
        insort(self.times, seconds)
        self.total += seconds
        self.attempted += 1
        self.failed += not unit.ok
        self.decided += unit.ok and unit.decided
        if not unit.ok and len(self.notes) < 20:
            self.notes.append(unit.note)

    def typical(self) -> float:
        return self.times[len(self.times) // 2] if self.times else 0.0


def _timed(fn, inp):
    t0 = time.perf_counter()
    try:
        out, err = fn(inp), None
    except Exception:  # a unit that raises is a failed unit; the run goes on
        out, err = None, traceback.format_exc(limit=4)
    return time.perf_counter() - t0, out, err


def _checked(w, inp, out, err, seconds):
    from workloads import Unit
    if err is not None:
        return Unit(False, False, err.strip().splitlines()[-1])
    return w.check(inp, out, seconds)


def measure(w, seconds: float) -> Tally:
    tally = Tally()
    started = time.perf_counter()
    for inp in w.inputs():
        if tally.times and _stop(started, seconds, tally.typical()):
            break
        dt, out, err = _timed(w.run, inp)
        tally.add(dt, _checked(w, inp, out, err, dt))
    return tally


def measure_traced(w, seconds: float):
    """Each input runs untraced, then traced; both outputs must agree
    and pass the check.  Returns the tally, the recorder and the
    untraced and traced times of the traced call."""
    import workloads
    from tracer import Recorder
    from workloads import Unit
    rec = Recorder()
    tally = Tally()
    plain, traced, wall = [], [], []
    separate = type(w).traced_call is not workloads.Workload.traced_call
    started = time.perf_counter()
    for k, inp in enumerate(w.inputs()):
        if tally.times and _stop(started, seconds, tally.typical()):
            break
        dt_run = 0.0
        if separate:
            dt_run, out_run, err_run = _timed(w.run, inp)
            wall.append(dt_run)
            unit = _checked(w, inp, out_run, err_run, dt_run)
        dt0, out0, err0 = _timed(w.traced_call, inp)
        with rec.installed(), rec.unit_scope(k):
            dt1, out1, err1 = _timed(w.traced_call, inp)
        if not separate:
            unit = _checked(w, inp, out0, err0, dt0)
        elif err0 is None and out0 != out_run:
            unit = Unit(False, False, f"in-process output differs from the subprocess on {inp[0]}")
        if unit.ok and (err0, out0) != (err1, out1):
            unit = Unit(False, False, "traced output differs from the untraced output")
        plain.append(dt0)
        traced.append(dt1)
        tally.add(dt_run + dt0 + dt1, unit)
    return tally, rec, plain, traced, wall


END_TO_END = (("setup_s", "s"), ("throughput_ops_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("decided_share", "share"), ("peak_rss_mb", "MB"))


def end_to_end(w, tally: Tally, setup: list[float]) -> dict:
    t = tally.times
    values = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": len(t) / tally.total,
        "latency_p50_ms": statistics.median(t) * 1000,
        "latency_p90_ms": _quantile(t, 0.9) * 1000,
        "decided_share": tally.decided / tally.attempted,
        "peak_rss_mb": w.peak_rss_mb(),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("certify", "discover", "decide", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full result, with the environment, here")
    args = p.parse_args(argv)
    os.environ.update(ONE_THREAD)  # before numpy loads, here and in every child
    _load_program()

    import tracer
    import workloads

    env = environment(args.seed)
    w = workloads.make(args.workload, args.seed, ROOT)
    setup: list[float] = []
    extra: dict = {}
    if args.trace:
        tally, rec, plain, traced, wall = measure_traced(w, args.seconds)
        if args.workload == "cli":
            extra["cli.import_s"] = statistics.median(w.import_seconds() for _ in range(3))
            extra["cli.main_ms"] = statistics.median(plain) * 1000
            extra["cli.process_overhead_ms"] = statistics.median(
                (a - b) * 1000 for a, b in zip(wall, plain))
        metrics = tracer.layer_metrics(rec.summary(), plain, traced, extra)
    else:
        setup = setup_seconds(args.workload, args.seed)
        tally = measure(w, args.seconds)
        metrics = end_to_end(w, tally, setup)
    env["loadavg_1m_end"] = _loadavg()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  units {tally.attempted}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':44s} {tally.failed / tally.attempted:.6g} share "
          f"({tally.failed}/{tally.attempted})")
    if not args.trace:
        print(f"  latency samples: {len(tally.times)}; setup samples: "
              + " ".join(f"{s:.4f}" for s in setup))
    if w.summary():
        print(f"  {w.summary()}")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    if args.out:
        full = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                    env=env, setup_samples=setup, latency_samples=len(tally.times),
                    summary=w.summary())
        Path(args.out).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
