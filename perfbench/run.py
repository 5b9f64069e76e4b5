"""fracldp benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the one holding ``src/fracldp`` and
``configs/``). Each workload runs in a fresh single process with BLAS/OpenMP
threads pinned to 1; ``SETUP_PROBES`` more fresh processes only set up, so
``setup_s`` is a median. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The full
result, with the environment record, operation walls and key numbers, is
saved under ``.perfbench_out/results/`` for ``compare.py``.

Workloads (see ``workloads.py``): ``sim-default``, ``mc-ldp-scalar``,
``rate-endpoint``, ``validate-boundary``. An operation is one CLI run (or one
batch of rate solves); it fails on an unexpected exit code or a failed check.

End-to-end metrics:

* ``wall_s``: the mean operation wall time. A mean, not a median: a shared
  host's core speed can sit at one of two levels for tens of seconds, so the
  operations of one run are bimodal and their median jumps where their mean
  moves smoothly;
* ``setup_s``: the median time a fresh process takes to import fracldp (with
  numpy and scipy), parse the config and build the model and step kernel;
* ``peak_rss_mb``: the peak resident memory of the workload process;
* ``work_per_s``: the requested work of the run's operations over their total
  wall time -- path-steps (paths x steps x |eps| x |data|) on ``sim-default``
  and ``mc-ldp-scalar``, endpoint solves on ``rate-endpoint``, sampled points
  on ``validate-boundary``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 4
BUDGET_S = 170.0  # whole run, including set-up probes
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _git_sha(root: str):
    """HEAD commit read from ``.git`` inside the checkout, or None outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _worker(args, work_dir, result_path, deadline, setup_only):
    env = dict(os.environ)
    env.update({var: "1" for var in PIN_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", work_dir, "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    log_path = os.path.join(work_dir, "worker.log")
    with open(log_path, "a", encoding="utf-8") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as handle:
            sys.stderr.write(handle.read()[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for needed in ("BENCHMARK.json", os.path.join("src", "fracldp", "__init__.py"),
                   os.path.join("configs", "mc-ldp.json"),
                   os.path.join("configs", "validate-model.json")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a fracldp source "
                  "checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + BUDGET_S
    work_dir = os.path.join(OUT, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        setups = [
            _worker(args, work_dir, os.path.join(work_dir, f"setup-{i}.json"), deadline, True)["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        res = _worker(args, work_dir, os.path.join(work_dir, "worker.json"), deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        values = res["layer"]
    else:
        wall = statistics.mean(res["walls"])
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "work_per_s": res["requested_work"] / wall,
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    env = {
        "git_sha": _git_sha(ROOT),
        **res["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_pins": {var: "1" for var in PIN_VARS},
    }
    correct = not res["problems"] and res["failed"] == 0
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics, "env": env,
        "walls": res["walls"], "traced_walls": res.get("traced_walls"),
        "setups": setups, "key_numbers": res["key_numbers"],
        "problems": res["problems"],
    }
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as handle:
        json.dump(full, handle, indent=1)

    for problem in res["problems"]:
        print(f"problem: {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{res['attempted']} operations, walls {['%.3f' % w for w in res['walls']]}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
