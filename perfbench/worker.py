"""One workload in a fresh process: set up, run operations for a window, check.

Started by ``run.py`` with the thread-pin variables already in its
environment. ``setup_s`` runs from the top of this file to the end of the
workload's ``setup``, so it covers importing fracldp with numpy and scipy.
Writes its findings as JSON to ``--result``.

Untraced (``--trace 0``): operations repeat until the next one would end past
``--seconds`` (at least ``MIN_REPS``). Traced (``--trace 1``): untraced and
traced operations alternate in pairs (at least ``MIN_PAIRS``), so the tracing
overhead is measured in one process and the exact counts of two traced
operations of the same seed can be compared.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from tracing import EXACT_COUNTS, Tracer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, compare_reference  # noqa: E402

MIN_REPS = 3
MIN_PAIRS = 2
HERE = os.path.dirname(os.path.abspath(__file__))


def _operation(wl):
    """Run and check one operation: (wall seconds, problems, key numbers)."""
    started = time.perf_counter()
    try:
        outcome = wl.run()
    except Exception:  # a crashing operation is a failed operation, not a crash of the benchmark
        return time.perf_counter() - started, [traceback.format_exc()], {}
    wall = time.perf_counter() - started
    problems, numbers = wl.check(outcome)
    return wall, problems, numbers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]()
    os.makedirs(args.work_dir, exist_ok=True)
    wl.setup(args.root, args.seed, args.work_dir)
    setup_s = time.perf_counter() - _T0

    import fracldp
    import numpy
    import scipy

    src = os.path.join(args.root, "src", "fracldp")
    result = {
        "setup_s": setup_s,
        "fracldp_file": fracldp.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "problems": [],
    }
    if os.path.dirname(os.path.abspath(fracldp.__file__)) != os.path.abspath(src):
        result["problems"].append(f"fracldp imported from {fracldp.__file__}, not {src}")
    if args.setup_only:
        _write(args.result, result)
        return 0

    ops = []  # (traced, wall, problems, numbers, layer metrics or None)
    deadline = time.perf_counter() + args.seconds
    tracer = None
    if args.trace:
        tracer = Tracer()
    while True:
        wall, problems, numbers = _operation(wl)
        ops.append((False, wall, problems, numbers, None))
        if tracer is not None:
            tracer.install()
            mark = tracer.mark()
            try:
                wall, problems, numbers = _operation(wl)
            finally:
                tracer.uninstall()
            ops.append((True, wall, problems, numbers, tracer.layer_metrics(mark)))
        done = len(ops) // 2 if tracer is not None else len(ops)
        need = MIN_PAIRS if tracer is not None else MIN_REPS
        per_round = sum(op[1] for op in ops[-2:]) if tracer is not None else ops[-1][1]
        if done >= need and time.perf_counter() + per_round > deadline:
            break

    _cross_checks(args, ops)
    untraced = [op[1] for op in ops if not op[0]]
    result.update({
        "walls": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requested_work": wl.requested_work,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op[2]),
        "problems": result["problems"] + [p for op in ops for p in op[2]],
        "key_numbers": ops[0][3],
    })
    if tracer is not None:
        traced = [op for op in ops if op[0]]
        layers = [op[4] for op in traced]
        # exact counts are equal across traced operations (checked above)
        layer = {k: layers[0][k] if k in EXACT_COUNTS else statistics.median(m[k] for m in layers)
                 for k in layers[0]}
        layer["bench.trace_overhead_s"] = (
            statistics.median(op[1] for op in traced) - statistics.median(untraced)
        )
        result["layer"] = layer
        result["traced_walls"] = [op[1] for op in traced]
        tracer.dump(os.path.join(args.work_dir, "spans.jsonl"))
    _write(args.result, result)
    return 0


def _cross_checks(args, ops) -> None:
    """Checks across operations, added to the problems of the operation that fails them."""
    first_numbers = ops[0][3]
    for i, op in enumerate(ops[1:], start=1):
        if op[3] != first_numbers and not op[2]:
            op[2].append(f"operation {i}: key numbers differ from operation 0 on the same seed")
    if args.seed == REFERENCE_SEED and not ops[0][2]:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            reference = json.load(handle).get(args.workload)
        if reference is None:
            ops[0][2].append(f"reference.json has no entry for {args.workload}")
        else:
            ops[0][2].extend(compare_reference(args.workload, first_numbers, reference))
    traced = [op for op in ops if op[0]]
    for op in traced[1:]:
        for key in EXACT_COUNTS:
            if op[4][key] != traced[0][4][key]:
                op[2].append(f"exact count {key}: {op[4][key]} != {traced[0][4][key]}")


def _write(path, result) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)


if __name__ == "__main__":
    sys.exit(main())
