"""wsnmle benchmark: runs one workload and prints one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-unimodular --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50     # every workload, one process each
    python3 perfbench/run.py --workload all --smoke --seconds 1

The library is imported from ``src/`` next to this directory, never from
an installed copy; without those sources the script exits with code 2.

A run draws a fixed number of job inputs from the seed and cycles through
them for ``--seconds``, every input at least twice.  Repeats of an input
must give byte-identical outputs.  Before each cycle the run sets up
afresh (import, config and a smoke-size warm-up job).

Every job and every set-up is followed by one call of a fixed reference
kernel (``reference.py``).  Each time is scaled by the reference times
around it to seconds of a nominal machine, so a run that falls in a slow
stretch of a shared host reports what a run in a fast one does.  An
input's time is the median of its scaled repeats; ``setup_s`` is the
median scaled set-up.  The unscaled figures print as notes.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` every second cycle runs with a span around each layer entry
point (``spans.py``), the last line holds the per-layer metrics, and the
spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# update_y's dense solve and the consensus mat-vecs go through BLAS.  Its
# thread count is fixed before numpy loads, so every commit runs with the
# same count, at or below the core count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import hashlib
import importlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from reference import nominal_seconds, reference_seconds
from spans import SpanRecorder, layer_metrics
from workloads import WORKLOADS, Outcome, input_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAYERS = ("errors", "topology", "network_model", "fusion", "gain_optimizer", "consensus", "experiment", "cli")
# Set-ups before the first cycle; one more precedes every later cycle.
FIRST_SETUPS = 3
# The warm-up input does not depend on the benchmark seed, so set-up times
# compare across seeds.
WARM_UP_SEED = 0


def import_lib() -> SimpleNamespace:
    """Import wsnmle afresh from ``src/``."""
    for name in [m for m in sys.modules if m == "wsnmle" or m.startswith("wsnmle.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{name: importlib.import_module(f"wsnmle.{name}") for name in LAYERS})
    origin = Path(lib.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: wsnmle was imported from {origin}, not from {SRC}")
    return lib


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None where unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of a git checkout, read from its files; None outside one."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_context() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


class Runner:
    """Runs the jobs of one workload and keeps count of what they did."""

    def __init__(self, workload, params, seed, work_dir):
        self.wl = workload
        self.params = params
        self.seed = seed
        self.work_dir = work_dir
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []
        self.setup_times: list[tuple[float, float]] = []  # (raw, scaled)
        self.ref_times: list[float] = []
        self._ref_before = 0.0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self._jobs = 0

    def job(self, lib, index, recorder=None):
        """Run input ``index`` once; return (seconds, Outcome)."""
        self._jobs += 1
        out_dir = self.work_dir / f"job{self._jobs}"
        master_seed = input_seed(self.seed, index)
        if recorder is not None:
            recorder.trial = index
            recorder.install()
        start = perf_counter()
        try:
            result = self.wl.run(lib, self.params, master_seed, out_dir)
            error = None
        except lib.errors.WsnMleError as exc:
            error = exc
        seconds = perf_counter() - start
        if recorder is not None:
            recorder.uninstall()
        if error is None:
            outcome = self.wl.check(lib, self.params, result, out_dir)
            if self.digests.setdefault(index, outcome.digest) != outcome.digest:
                outcome.problems.append("outputs differ between repeats of this input")
                outcome.failed = outcome.scenarios
        else:
            n = self.wl.scenarios_per_job(self.params)
            outcome = Outcome(scenarios=n, failed=n, problems=[f"{type(error).__name__}: {error}"])
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.with_suffix(".json").unlink(missing_ok=True)
        self.attempted += outcome.scenarios
        self.failed += outcome.failed
        self.problems += [f"input {index}: {p}" for p in outcome.problems]
        return seconds, outcome

    def set_up(self):
        """Import, configure and warm up once; return the fresh library and the time."""
        warm = Runner(self.wl, self.wl.smoke, WARM_UP_SEED, self.work_dir / "setup")
        warm.work_dir.mkdir(parents=True, exist_ok=True)
        start = perf_counter()
        lib = import_lib()
        warm.job(lib, 0)
        seconds = perf_counter() - start
        self.attempted += warm.attempted
        self.failed += warm.failed
        self.problems += [f"warm-up: {p}" for p in warm.problems]
        return lib, seconds

    def scaled(self, seconds):
        """A time just taken, in seconds of the nominal machine.

        Runs the reference kernel once and divides ``seconds`` by the mean
        of that and the previous reference time (reference.py).
        """
        after = reference_seconds(self.wl.reference)
        ratio = seconds / (0.5 * (self._ref_before + after))
        self._ref_before = after
        self.ref_times.append(after)
        return ratio * nominal_seconds(self.wl.reference)

    def measure(self, seconds, recorder=None):
        """Cycle through the inputs for ``seconds``; with a recorder, trace every second cycle.

        Returns the (raw, scaled) job times per input of the untraced and
        the traced cycles, and the outcomes of every (input, traced) pair.
        """
        inputs = self.params["inputs"]
        min_cycles = 4 if recorder is not None else 2
        times = {False: defaultdict(list), True: defaultdict(list)}
        outcomes = {}
        start = perf_counter()
        self._ref_before = reference_seconds(self.wl.reference)
        self.ref_times.append(self._ref_before)
        for cycle in itertools.count():
            if cycle >= min_cycles and perf_counter() - start >= seconds:
                break
            for _ in range(FIRST_SETUPS if cycle == 0 else 1):
                lib, dt = self.set_up()
                self.setup_times.append((dt, self.scaled(dt)))
            traced = recorder is not None and cycle % 2 == 1
            for index in range(inputs):
                dt, outcome = self.job(lib, index, recorder if traced else None)
                times[traced][index].append((dt, self.scaled(dt)))
                outcomes.setdefault((index, traced), []).append(outcome)
                if cycle >= min_cycles and perf_counter() - start >= seconds:
                    break
            if cycle + 1 == min_cycles:
                # Later cycles depend on the machine's speed; this peak
                # covers a fixed amount of work.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return times, outcomes


def input_seconds(times: dict) -> float:
    """Sum over inputs of each input's median scaled job time."""
    return sum(statistics.median(t[1] for t in ts) for ts in times.values())


def raw_seconds(times: dict) -> float:
    """Sum over inputs of each input's fastest raw job time."""
    return sum(min(t[0] for t in ts) for ts in times.values())


def end_to_end(runner, times, outcomes) -> dict:
    done = sum(o[0].scenarios - o[0].failed for (_, traced), o in outcomes.items() if not traced)
    print(f"perfbench note raw_trials_per_s = {done / raw_seconds(times[False])!r}")
    print(f"perfbench note raw_setup_s = {statistics.median(t[0] for t in runner.setup_times)!r}")
    print(f"perfbench note reference_s = {statistics.median(runner.ref_times)!r} "
          f"(nominal {nominal_seconds(runner.wl.reference)!r}, kernel {runner.wl.reference})")
    return {
        "setup_s": (statistics.median(t[1] for t in runner.setup_times), "s"),
        "trials_per_s": (done / input_seconds(times[False]), "1/s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
    }


def per_layer(recorder, times, outcomes) -> dict:
    traced = [o for (_, t), runs in outcomes.items() if t for o in runs]
    scenarios = sum(o.scenarios for o in traced)
    metrics = layer_metrics(recorder, scenarios, sum(o.bytes_written for o in traced))
    # Compare the inputs both kinds of cycle ran.
    both = times[True].keys() & times[False].keys()
    metrics["trace.overhead_frac"] = (
        input_seconds({i: times[True][i] for i in both}) / input_seconds({i: times[False][i] for i in both}) - 1.0,
        "frac",
    )
    metrics["trace.scenarios"] = (scenarios, "count")
    return metrics


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    work_dir = OUT / f"{wl.name}-seed{seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(wl, wl.smoke if args.smoke else wl.params, seed, work_dir)
    recorder = SpanRecorder() if args.trace else None
    try:
        times, outcomes = runner.measure(args.seconds, recorder)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("perfbench context " + json.dumps(run_context(), sort_keys=True))
    if recorder is None:
        metrics = end_to_end(runner, times, outcomes)
    else:
        metrics = per_layer(recorder, times, outcomes)
        recorder.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    first = [runs[0] for (_, traced), runs in outcomes.items() if not traced]
    var_ones = sum(o.var_ones for o in first)
    if var_ones:
        # Lower is better; a speed-up that comes from stopping the optimizer
        # early shows here.
        print(f"perfbench note opt_var_ratio = {sum(o.var_optimized for o in first) / var_ones!r}")
    for problem in runner.problems:
        print(f"perfbench check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value!r} {unit}")
    return {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; metrics are keyed workload/metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="benchmark seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=50.0, help="job time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "wsnmle" / "__init__.py").is_file():
        print(f"perfbench: no wsnmle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
