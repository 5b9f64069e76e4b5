"""Compare, summarize, or take references from saved benchmark results.

``run.py`` saves one full result per run under ``.perfbench_out/results/``.
Run the parent and the change alternately, seed by seed, with the same
``--seconds``; copy each side's results into its own directory, then

    python3 perfbench/compare.py compare PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py summary DIR      # medians and quartiles, as JSON
    python3 perfbench/compare.py reference DIR    # key numbers of the reference seed, as JSON

``compare`` pairs untraced runs by workload and seed and reports each
workload x end-to-end metric as

* ``improved``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  spread;
* ``unresolved``: otherwise, when the parent's interquartile spread is wider
  than the metric's bound and not every change run beats every parent run;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``unchanged``: otherwise.

It also reports the failed-operation share of each side. The bounds and the
direction of each metric come from ``BENCHMARK.json``.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> list:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            out.append(json.load(handle))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m for m in json.load(handle)["end_to_end"]}


def classify(parent: dict, change: dict, metric: dict) -> tuple:
    """(verdict, detail) for one workload x metric; ``parent``/``change`` map seed -> value."""
    higher = metric["better"] == "higher"

    def better(a, b):
        return a > b if higher else a < b

    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return "unresolved", "no paired seeds"
    wins = sum(1 for s in seeds if better(change[s], parent[s]))
    p1, pmed, p3 = quartiles([parent[s] for s in seeds])
    _, cmed, _ = quartiles([change[s] for s in seeds])
    spread = p3 - p1
    gap = cmed - pmed
    worse_share = (-gap if higher else gap) / pmed
    detail = (f"pairs {len(seeds)}, change wins {wins}, parent median {pmed:.6g} "
              f"(IQR {spread:.3g}), change median {cmed:.6g}, worse by {worse_share:+.1%}")
    if wins >= 0.9 * len(seeds) and better(cmed, pmed) and abs(gap) > spread:
        return "improved", detail
    all_better = all(better(c, p) for c in change.values() for p in parent.values())
    if spread / pmed > metric["bound"] and not all_better:
        return "unresolved", detail
    if worse_share > metric["bound"]:
        return "worse", detail
    return "unchanged", detail


def compare(parent_dir: str, change_dir: str) -> int:
    metrics = spec()
    sides = {"parent": load(parent_dir), "change": load(change_dir)}
    workloads = sorted({r["workload"] for rs in sides.values() for r in rs})
    for wl in workloads:
        print(f"== {wl}")
        for side, results in sides.items():
            rs = [r for r in results if r["workload"] == wl]
            attempted = sum(r["attempted"] for r in rs)
            failed = sum(r["failed"] for r in rs)
            share = failed / attempted if attempted else float("nan")
            print(f"  {side}: {len(rs)} runs, failed operations {failed}/{attempted} ({share:.1%})")
        by_seed = {
            side: {r["seed"]: r for r in results if r["workload"] == wl and r["trace"] == 0}
            for side, results in sides.items()
        }
        for name, metric in metrics.items():
            values = {
                side: {s: r["metrics"][name]["value"] for s, r in runs.items()}
                for side, runs in by_seed.items()
            }
            verdict, detail = classify(values["parent"], values["change"], metric)
            print(f"  {name:<12} {verdict:<10} {detail}")
    return 0


def summary(directory: str) -> int:
    results = load(directory)
    out = {}
    for wl in sorted({r["workload"] for r in results}):
        runs = [r for r in results if r["workload"] == wl]
        entry = {"env": runs[-1]["env"],
                 "failed_operations": sum(r["failed"] for r in runs),
                 "attempted_operations": sum(r["attempted"] for r in runs)}
        for trace in (0, 1):
            rs = [r for r in runs if r["trace"] == trace]
            if not rs:
                continue
            block = {"runs": len(rs), "seeds": sorted(r["seed"] for r in rs), "metrics": {}}
            for name in rs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3 = quartiles(values)
                block["metrics"][name] = {
                    "unit": rs[0]["metrics"][name]["unit"], "median": med,
                    "q1": q1, "q3": q3,
                    "iqr_share": (q3 - q1) / med if med else 0.0,
                }
            entry["end_to_end" if trace == 0 else "per_layer"] = block
        out[wl] = entry
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def reference(directory: str) -> int:
    from workloads import REFERENCE_SEED

    out = {}
    for r in load(directory):
        if r["seed"] == REFERENCE_SEED and r["key_numbers"]:
            out[r["workload"]] = r["key_numbers"]
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def main(argv) -> int:
    commands = {"compare": (compare, 2), "summary": (summary, 1), "reference": (reference, 1)}
    if not argv or argv[0] not in commands or len(argv) - 1 != commands[argv[0]][1]:
        print(__doc__, file=sys.stderr)
        return 2
    fn, _ = commands[argv[0]]
    return fn(*argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
