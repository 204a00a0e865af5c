"""Layered benchmark of graphforms.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload as a closed loop with a single client: each op
starts when the previous one has returned.  After the set-up and one untimed
warm-up cycle, a run is a whole number of cycles of the workload's op list,
in an order the seed shuffles every cycle, for about ``--seconds`` seconds.
Every op is timed around its call into the public API and then checked
against an oracle.  Op times are rescaled to a reference machine speed (see
REF_SECONDS); ``op_p50_s`` and ``op_p90_s`` are nearest-rank percentiles of a
cycle's ops, each at its kind's median time, and ``ops_per_s`` is the median
over cycles of verified ops per second of op time.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken
from the traced cycles of a run that alternates traced and untraced cycles
(the pair gives the tracing overhead); span times there are raw wall times.  The line before it holds the
environment, each op kind's median time, the raw wall times and the first
error of each failing kind.  ``--smoke`` runs one cycle of every workload at desk-scale sizes and
the known failures, and exits 1 unless every op verifies.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = "2"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3

# On a shared 2-vCPU VM, other tenants changed raw op times by up to 40 %
# from one minute to the next, far beyond any useful bound.  So each op is
# timed between two runs of a fixed reference task, and its wall time is
# rescaled to a machine on which that task takes REF_SECONDS (about its time
# on that VM when idle, Python 3.11): value = wall * REF_SECONDS / reference
# time.  Set-up times are rescaled the same way.  The task mixes
# what graphforms spends its time on -- interpreter loops, float lists summed
# with fsum, dicts of tuples and numpy passes over arrays -- so contention
# slows it about as much.  Raw wall times are printed in the detail line.
REF_SECONDS = 0.004

IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import importlib; importlib.import_module(sys.argv[1])\n"
    "print(time.perf_counter() - t0)\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare_environment() -> None:
    """Pin BLAS threads and make the checkout's own source importable."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "graphforms" / "__init__.py").is_file():
        fail(f"no graphforms source under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)


def child_import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, module],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        fail(f"importing {module} failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class ReferenceTask:
    """The fixed task whose time gauges the machine's speed at a moment.

    Its data is made once, so timing it allocates nothing and does not
    depend on the state of the heap.
    """

    def __init__(self):
        import numpy as np

        self.floats = [float(i) for i in range(20_000)]
        self.table = {i: (i,) for i in range(10_000)}
        self.a = np.arange(100_000.0)
        self.b = np.empty_like(self.a)
        self.multiply = np.multiply
        for _ in range(3):
            self.seconds()

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        math.fsum(self.floats)
        table = self.table
        for i in range(10_000):
            acc += table[i][0]
        self.multiply(self.a, self.a, out=self.b)
        float(self.b.sum())
        return time.perf_counter() - t0


def nearest_rank(sorted_values: list, p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def run_op(op, tracer=None, op_id=0):
    """Time one op and check it: (seconds, failure kind or None, message, oracle error)."""
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        answer = op.run()
    except Exception as exc:  # any escaping exception is a failed op
        elapsed = time.perf_counter() - t0
        return elapsed, "exception", f"{type(exc).__name__}: {exc}", None
    finally:
        if tracer is not None:
            tracer.end_op()
    elapsed = time.perf_counter() - t0
    from workloads import ExitCodeMismatch, Mismatch

    try:
        err = op.check(answer)
    except ExitCodeMismatch as exc:
        return elapsed, "exit_code", str(exc), None
    except Mismatch as exc:
        return elapsed, "tolerance", str(exc), None
    except Exception as exc:  # the answer could not be read back: wrong answer
        return elapsed, "tolerance", f"check raised {type(exc).__name__}: {exc}", None
    return elapsed, None, "", err


def environment(seed: int, cycles: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "machine": platform.machine(),
        "seed": seed,
        "cycles": cycles,
    }


def set_up(name: str, seed: int, workdir: Path, reference: ReferenceTask):
    """Set the workload up SETUP_REPS times.

    One set-up is a fresh interpreter's import of the workload's entry module
    plus generating its graphs and files in this process.  Returns the ops,
    the median rescaled and raw set-up times, and the CLI's import time.
    """
    import numpy as np

    from workloads import WORKLOADS

    build = WORKLOADS[name]
    entry = "graphforms.cli" if name == "cli" else "graphforms"
    raw, scaled = [], []
    ref_before = reference.seconds()
    for _ in range(SETUP_REPS):
        import_s = child_import_seconds(entry)
        t0 = time.perf_counter()
        ops = build(np.random.default_rng(seed), str(workdir))
        raw.append(import_s + time.perf_counter() - t0)
        ref_after = reference.seconds()
        scaled.append(raw[-1] * 2.0 * REF_SECONDS / (ref_before + ref_after))
        ref_before = ref_after
    cli_import_s = child_import_seconds("graphforms.cli")
    return ops, statistics.median(scaled), statistics.median(raw), cli_import_s


class Sample(NamedTuple):
    cycle: int
    kind: str
    wall: float
    seconds: float  # wall rescaled to the reference machine speed
    failure: str | None
    message: str
    traced: bool


# Shortest half-width of the window of reference timings that rescales an op.
REF_WINDOW_S = 0.05


def rescale(records: list, ref_times: list, ref_values: list) -> list:
    """Samples with each op's wall time rescaled to the reference speed.

    The machine's speed drifts over tenths of a second to minutes, so an op
    is rescaled by the mean reference time over a window reaching one op
    length (at least REF_WINDOW_S) beyond each end of it: short ops by the
    timings next to them, long ops by the many taken around them.
    """
    import numpy as np

    times = np.asarray(ref_times)
    values = np.asarray(ref_values)
    samples = []
    for start, cycle, kind, wall, failure, message, traced in records:
        reach = max(wall, REF_WINDOW_S)
        lo, hi = np.searchsorted(times, (start - reach, start + wall + reach))
        scaled = wall * REF_SECONDS / float(values[lo:hi].mean())
        samples.append(Sample(cycle, kind, wall, scaled, failure, message, traced))
    return samples


# JSON has no infinity; a percentile that lands on a failed op reads this.
FAILED_OP_SECONDS = 1e9


def kind_medians(samples: list, field: str = "seconds") -> dict:
    """Median time of each op kind; a failed op counts as +inf."""
    by_kind = defaultdict(list)
    for s in samples:
        by_kind[s.kind].append(getattr(s, field) if s.failure is None else math.inf)
    return {k: statistics.median(v) for k, v in by_kind.items()}


def cycle_rate(samples: list, field: str = "seconds") -> float:
    """Median over cycles of verified ops per second of the cycle's op time."""
    by_cycle = defaultdict(list)
    for s in samples:
        by_cycle[s.cycle].append(s)
    return statistics.median(
        sum(1 for s in c if s.failure is None) / math.fsum(getattr(s, field) for s in c)
        for c in by_cycle.values()
    )


def percentile(kind_times: dict, p: float) -> float:
    """Nearest-rank percentile over a cycle's ops, each at its kind's median.

    Every kind runs once per cycle, so this is the percentile of a typical
    cycle; taking each kind's median first keeps a single slow sample from
    setting the value.
    """
    value = nearest_rank(sorted(kind_times.values()), p)
    return value if math.isfinite(value) else FAILED_OP_SECONDS


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy as np

    workdir = OUT_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference = ReferenceTask()
        ops, setup_s, setup_wall_s, cli_import_s = set_up(name, seed, workdir, reference)
        tracer = None
        if trace:
            from spans import Tracer, install

            tracer = Tracer()
            install(tracer)
        first_op_s = time.perf_counter() - PROCESS_START
        order_rng = np.random.default_rng([seed, 1])
        # One untimed cycle first, so lazy imports and heap growth are paid
        # before timing starts; its ops still count as attempted.
        warm_up = [(op.kind, *run_op(op)[1:3]) for op in ops]
        # Set-up data is the benchmark's, not graphforms': keep it out of the
        # collector's full passes, and start every op from a collected heap.
        gc.collect()
        gc.freeze()
        records = []  # (start, Sample fields but the rescaled time)
        ref_times, ref_values = [], []
        oracle_err = 0.0
        cycles = 0
        t_start = time.perf_counter()
        ref_times.append(time.perf_counter())
        ref_values.append(reference.seconds())
        while True:
            traced = tracer is not None and cycles % 2 == 0
            for i in order_rng.permutation(len(ops)):
                op = ops[i]
                gc.collect()
                start = time.perf_counter()
                elapsed, failure, message, err = run_op(
                    op, tracer if traced else None, len(records))
                ref_times.append(time.perf_counter())
                ref_values.append(reference.seconds())
                records.append((start, cycles, op.kind, elapsed, failure, message, traced))
                if err is not None:
                    oracle_err = max(oracle_err, err)
            cycles += 1
            spent = time.perf_counter() - t_start
            if spent + spent / cycles > seconds and (tracer is None or cycles >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write(OUT_DIR / f"trace-{name}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = rescale(records, ref_times, ref_values)
    outcomes = warm_up + [(s.kind, s.failure, s.message) for s in samples]
    attempted = len(outcomes)
    failed = sum(1 for _, failure, _ in outcomes if failure is not None)
    first_errors = {}
    for kind, failure, message in outcomes:
        if failure is not None and kind not in first_errors:
            first_errors[kind] = {"failure": failure, "message": message}
    kind_times = kind_medians(samples)
    detail = {
        "workload": name,
        "environment": environment(seed, cycles),
        "samples": attempted,
        "fail_ratio": failed / attempted,
        "failures_by_kind": first_errors,
        "process_to_first_op_s": first_op_s,
        "op_median_by_kind_s": {k: kind_times[k] for k in sorted(kind_times)},
        "wall": {
            "setup_s": setup_wall_s,
            "ops_per_s": cycle_rate(samples, "wall"),
            "op_median_by_kind_s": kind_medians(samples, "wall"),
        },
    }

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (percentile(kind_times, 0.50), "s"),
            "op_p90_s": (percentile(kind_times, 0.90), "s"),
            "ops_per_s": (cycle_rate(samples), "1/s"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from spans import layer_metrics
        from workloads import OP_KINDS

        traced = [s for s in samples if s.traced]
        metrics = layer_metrics(tracer, len(traced))
        metrics["reflection.oracle_rel_err_max"] = (oracle_err, "ratio")
        metrics["cli.import_s"] = (cli_import_s, "s")
        metrics["trace.ops_per_s"] = (cycle_rate(traced), "1/s")
        metrics["trace.untraced_ops_per_s"] = (
            cycle_rate([s for s in samples if not s.traced]), "1/s")
        for kind in OP_KINDS:
            values = [s.seconds for s in traced if s.kind == kind]
            metrics[f"op.{kind}.p50_s"] = (statistics.median(values) if values else 0.0, "s")
        detail["span_count"] = len(tracer.spans)

    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def smoke(seed: int) -> int:
    """One cycle of every workload at desk-scale sizes, then the known failures."""
    import numpy as np

    from workloads import WORKLOADS, known_failures

    workdir = OUT_DIR / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for name, build in WORKLOADS.items():
            for op in build(np.random.default_rng(seed), str(workdir), small=True):
                elapsed, failure, message, _ = run_op(op)
                bad += failure is not None
                status = "ok" if failure is None else f"FAIL {failure}: {message}"
                print(f"{op.kind:40s} {elapsed:8.3f}s  {status}")
        for op, documented in known_failures(np.random.default_rng(seed), str(workdir)):
            elapsed, failure, message, _ = run_op(op)
            if failure is None:
                status = "now passes: move it into its workload's mix"
            elif failure == "exception" and message.startswith(documented):
                status = f"known failure: {message}"
            else:
                bad += 1
                status = f"FAIL {failure}, not the documented error: {message}"
            print(f"{op.kind:40s} {elapsed:8.3f}s  {status}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke: all ops verified" if not bad else f"smoke: {bad} op(s) failed")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("decompose", "resolvent", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    prepare_environment()
    if args.smoke:
        return smoke(args.seed)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
