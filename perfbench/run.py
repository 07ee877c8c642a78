"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload inline-domain-b1 --seed 1 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured with no spans recorded; with
``--trace 1`` they are the per-layer ones, from spans recorded around the
layer boundaries (see spans.py), and the spans are written to
``perfbench/out/``. A run whose correctness gate fails prints
``"correct": false`` with no metrics and exits 1. See README.md for what
each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

import common

WORKLOADS = ("inline-domain-b1", "inline-pk-b8", "pipeline-domain-b8",
             "sim-leader-crash")
OUT = common.ROOT / "perfbench" / "out"


def run_workload(name: str, seed: int, seconds: float, tracer):
    if name == "inline-domain-b1":
        import inline_loop
        return inline_loop.run("DOMAIN_OPTIMIZED", 1, seed, seconds, tracer)
    if name == "inline-pk-b8":
        import inline_loop
        return inline_loop.run("PK_ONLY", 8, seed, seconds, tracer)
    if name == "pipeline-domain-b8":
        import threaded
        return threaded.run(seed, seconds, tracer)
    import sim_crash
    return sim_crash.run(seed, seconds, tracer)


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = common.ROOT / ".git"
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


def source_digest() -> str:
    """SHA-256 over the measured program's sources, for checkouts that
    are not git work trees."""
    h = hashlib.sha256()
    for path in sorted(common.SRC.rglob("*.py")):
        h.update(str(path.relative_to(common.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def context(args, result) -> dict:
    import cryptography
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        **common.window_context(result.window),
        **result.ctx,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    cpus_available, pinned_cpu = common.pin()
    try:
        common.import_program()
    except (common.ProgramMissing, ImportError) as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2

    import spans
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.calibrate()
    result = run_workload(args.workload, args.seed, args.seconds, tracer)
    ctx = context(args, result)
    ctx.update(cpus_available=cpus_available, pinned_cpu=pinned_cpu)
    if tracer is not None:
        untraced = result.window.completed / result.window.wall_s
        traced = result.traced.completed / result.traced.wall_s
        metrics = spans.layer_metrics(tracer, result.traced.completed, {
            **result.ctx, "attempted": result.attempted,
            "failed": result.failed,
            "overhead_frac": 1.0 - traced / untraced})
        ctx["traced_throughput_ops"] = traced
        ctx["untraced_throughput_ops"] = untraced
        ctx["spans"] = tracer.span_count()
        ctx["span_cost_ns"] = {"own": tracer.own_cost_ns,
                               "parent": tracer.child_cost_ns}
        path = OUT / f"spans-{args.workload}.tsv.gz"
        tracer.write(path)
        ctx["spans_file"] = str(path.relative_to(common.ROOT))
    else:
        metrics = common.end_to_end(result)

    print("context " + json.dumps(ctx, sort_keys=True, default=str))
    correct = not result.problems
    if not correct:
        for problem in result.problems:
            print(f"GATE FAILED: {problem}")
        metrics = {}
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
