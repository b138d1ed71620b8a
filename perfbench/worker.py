"""Runs one workload's request plan through ``qparam.cli.main`` in process.

``run.py`` starts this script in a fresh interpreter. It imports qparam from
the checkout's ``src/``, sends one warm-up request per command, prints
``ready`` on stdout, and (unless ``--setup-only``) then runs whole passes of
the request mix as one closed-loop client until ``--seconds`` have passed and
at least ``--min-passes`` passes are done. Each request's report is captured,
checked against its reference after its timer stops, and the results are
written as JSON to ``--out``.

With ``--trace 1`` passes alternate between untraced and traced, so the
result holds layer aggregates and the tracing overhead as well.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
from checks import check  # noqa: E402


def run_request(cli, argv: list[str]) -> tuple[float, int | None, str]:
    """(latency, exit code or None if it raised, stdout) of one CLI call.

    ``cli.main`` is looked up at each call, so an installed tracer sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a request that raises is a failed request
        code = None
    latency = time.perf_counter() - start
    return latency, code, out.getvalue()


class Checker:
    """Checks reports, once per distinct (request, exit code, report)."""

    def __init__(self, requests: list[dict]):
        self.requests = {r["id"]: r for r in requests}
        self._seen: dict[tuple, str | None] = {}

    def __call__(self, request_id: int, code, stdout: str) -> str | None:
        key = (request_id, code, stdout)
        if key not in self._seen:
            r = self.requests[request_id]
            self._seen[key] = check(r["command"], code, stdout, r["ref"])
        return self._seen[key]


def run_pass(cli, requests, checker, tracer=None) -> list[list]:
    """One pass of the mix: [request id, latency, failure reason, speed
    probe] each. The probe is the mean of probes run just before and just
    after the request, outside its timer."""
    samples = []
    before = speed.probe()
    for r in requests:
        if tracer is not None:
            tracer.begin(r["id"])
        latency, code, stdout = run_request(cli, r["argv"])
        if tracer is not None:
            tracer.end()
        after = speed.probe()
        samples.append([r["id"], latency, checker(r["id"], code, stdout),
                        (before + after) / 2])
        before = after
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="JSON-lines file for the trace spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    plan = json.loads(Path(args.plan).read_text())
    requests = plan["requests"]
    checker = Checker(requests)

    from qparam import cli

    warmup = [run_request(cli, requests[i]["argv"]) for i in plan["warmup"]]
    print("ready", flush=True)
    warmup_failures = [
        [i, latency, reason] for i, (latency, code, stdout)
        in zip(plan["warmup"], warmup)
        if (reason := checker(i, code, stdout)) is not None
    ]
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    passes = 0
    while passes < args.min_passes or time.perf_counter() - start < args.seconds:
        if tracer is not None and passes % 2 == 1:
            tracer.install()
            try:
                traced.extend(run_pass(cli, requests, checker, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.extend(run_pass(cli, requests, checker))
        passes += 1
    elapsed = time.perf_counter() - start

    result = {
        "samples": plain,
        "passes": passes,
        "elapsed_s": elapsed,
        "warmup_failures": warmup_failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["traced_samples"] = traced
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        result["hook_errors"] = sum(
            values.get("trace.hook_errors", 0) for _, values in tracer.history)
        if args.spans:
            with open(args.spans, "w") as fh:
                for record in tracer.span_records():
                    fh.write(json.dumps(record) + "\n")
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
