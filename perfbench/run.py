"""Desk-scale benchmark of the qparam CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload ham-slice --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The seed draws the workload's instances,
which are written as CLI JSON files under ``.bench_build/perfbench/``; their
references are computed before any timing. A fresh worker interpreter then
sends the request mix through ``qparam.cli.main`` as one closed-loop client
(see worker.py), and this script checks the outcome and prints the metrics.
Timings are scaled to a reference machine speed (see speed.py).

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every report was correct, 1 when some
report was wrong, and 2 when the run could not be made at all.
"""
from __future__ import annotations

import os

# Applied before numpy loads, here and (through the environment) in every
# worker, so that both sides of a comparison run with the same BLAS threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# Setup is measured in the worker and in this many extra interpreters that
# stop after warm-up; setup_s is the median of all of them, speed-scaled.
SETUP_ONLY_RUNS = 4
# Whole passes of the mix per timed run, at least: with 20-request mixes this
# leaves at least ten samples beyond the 90th percentile.
MIN_PASSES = 6
# Every process this script starts ends before this many seconds have passed.
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


def run_worker(plan_path: Path, extra: list[str], deadline: float):
    """Start a worker interpreter and wait for it to end. Returns its setup
    time, seconds from start until it reported ``ready`` after warm-up, and
    the mean of the speed probes run just before and just after setup."""
    before = speed.probe()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path), *extra],
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    try:
        setup = None
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        if ready and proc.stdout.readline().strip() == b"ready":
            setup = time.perf_counter() - start
            after = speed.probe()
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup is None:
        raise BenchError(f"worker exited with code {code}")
    return setup, (before + after) / 2


def scaled(samples: list) -> list[tuple[int, float]]:
    """(request id, latency at the reference machine speed) per sample."""
    return [(request_id, latency * speed.REFERENCE_PROBE_S / probe)
            for request_id, latency, _, probe in samples]


def mix_ops_per_s(latencies: list[tuple[int, float]], mix_size: int) -> float:
    """Requests per second over one pass of the mix, each request's time
    taken as the median of its runs."""
    by_request = defaultdict(list)
    for request_id, latency in latencies:
        by_request[request_id].append(latency)
    if len(by_request) != mix_size:
        raise BenchError("a request of the mix never ran")
    return mix_size / sum(statistics.median(v) for v in by_request.values())


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated like numpy's default."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from its own .git without leaving it."""
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
    return "unknown (not a git checkout)"


def run_record(workload: str, seed: int, seconds: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def end_to_end(result: dict, setups: list[tuple], mix_size: int,
               speed_scaled: bool = True) -> dict:
    """{name: (value, unit)} of the end-to-end metrics of an untraced run."""
    samples = result["samples"]
    pairs = scaled(samples) if speed_scaled else [s[:2] for s in samples]
    latencies = [latency for _, latency in pairs]
    failed = sum(1 for s in samples if s[2] is not None)
    values = {
        "setup_s": statistics.median(
            setup * (speed.REFERENCE_PROBE_S / probe if speed_scaled else 1.0)
            for setup, probe in setups),
        "ops_per_s": mix_ops_per_s(pairs, mix_size),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "success_ratio": (len(samples) - failed) / len(samples),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: (value, END_TO_END[name]) for name, value in values.items()}


def layers(result: dict, mix_size: int) -> dict:
    """{name: (value, unit)} of the per-layer metrics of a traced run."""
    out = {name: tuple(value) for name, value in result["layers"].items()}
    plain = mix_ops_per_s(scaled(result["samples"]), mix_size)
    traced = mix_ops_per_s(scaled(result["traced_samples"]), mix_size)
    out["trace.ops_per_s_untraced"] = (plain, "1/s")
    out["trace.ops_per_s_traced"] = (traced, "1/s")
    out["trace.overhead_ratio"] = (plain / traced - 1.0, "ratio")
    return out


def measure(plan: dict, workdir: Path, seconds: float, trace: bool,
            deadline: float, min_passes: int = MIN_PASSES,
            setup_only_runs: int = SETUP_ONLY_RUNS, spans: Path | None = None):
    """Run the plan in worker interpreters: (worker result, setup times).

    Untraced runs add ``setup_only_runs`` setup-only interpreters to the
    setup times.
    """
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = workdir / "result.json"
    extra = ["--out", str(out), "--seconds", str(seconds),
             "--min-passes", str(min_passes), "--trace", str(int(trace))]
    if spans is not None:
        extra += ["--spans", str(spans)]
    setups = [] if trace else [run_worker(plan_path, ["--setup-only"], deadline)
                               for _ in range(setup_only_runs)]
    setups.append(run_worker(plan_path, extra, deadline))
    return json.loads(out.read_text()), setups


def outcome(result: dict, setups: list[tuple], trace: bool, mix_size: int) -> dict:
    """Metrics ({name: (value, unit)}), counts and run facts of one run."""
    samples = result["samples"] + result.get("traced_samples", [])
    failures = [s for s in samples if s[2] is not None]
    out = {
        "attempted": len(samples),
        "failed": len(failures),
        "correct": not failures and not result["warmup_failures"],
        "failures": [f"request {s[0]}: {s[2]}"
                     for s in (result["warmup_failures"] + failures)[:10]],
        "passes": result["passes"],
        "timed_s": result["elapsed_s"],
        "samples": len(result["samples"]),
        "setup_samples": setups,
    }
    if trace:
        out["metrics"] = layers(result, mix_size)
        out["absent_names"] = result["absent"]
        out["spans"] = result["spans"]
        out["hook_errors"] = result["hook_errors"]
    else:
        out["metrics"] = end_to_end(result, setups, mix_size)
        p90 = out["metrics"]["latency_p90_s"][0]
        out["samples_beyond_p90"] = sum(
            1 for _, latency in scaled(result["samples"]) if latency > p90)
        out["unscaled"] = {
            name: value for name, (value, _) in
            end_to_end(result, setups, mix_size, speed_scaled=False).items()}
        out["speed_probe_median_s"] = statistics.median(
            s[3] for s in result["samples"])
    return out


def metric_lines(metrics: dict) -> list[str]:
    return [f"  {name:34s} {'absent' if value is None else f'{value:.6g}':>14s} {unit}"
            for name, (value, unit) in metrics.items()]


def main() -> int:
    from workloads import MIXES, build_plan

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qparam" / "cli.py").is_file():
        raise BenchError(f"no qparam sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    record = run_record(args.workload, args.seed, args.seconds)
    spans = None
    if args.trace:
        spans = BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl"
        record["spans_file"] = str(spans.relative_to(ROOT))
    workdir = BUILD / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = build_plan(args.workload, args.seed, workdir / "inputs")
        result, setups = measure(plan, workdir, args.seconds, bool(args.trace),
                                 deadline, spans=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mix_size = len(plan["requests"])
    run = outcome(result, setups, bool(args.trace), mix_size)
    metrics = run.pop("metrics")
    record.update(run, mix_size=mix_size)

    print(f"workload {args.workload}, seed {args.seed}: {run['attempted']} "
          f"requests in {run['passes']} passes of {mix_size} "
          f"({run['timed_s']:.1f} s timed), {run['failed']} failed")
    if args.trace:
        print("per-layer values are per pass of the mix")
    print("\n".join(metric_lines(metrics)))
    if not args.trace:
        print(f"  latency samples {run['samples']}, "
              f"{run['samples_beyond_p90']} beyond p90; "
              f"failed_ratio {run['failed']}/{run['attempted']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
