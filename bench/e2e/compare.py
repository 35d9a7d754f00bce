#!/usr/bin/env python3
"""Compare two sets of twq_e2e runs against the benchmark's bounds.

    python3 bench/e2e/compare.py BASE_DIR [NEW_DIR] [--benchmark FILE]

Each directory holds the standard output of runs (one file per run, as
printed by bench/e2e/run.py or twq_e2e): the header line names the
workload and the last line is the result JSON. Untraced runs carry the
end-to-end metrics, traced runs the per-layer ones.

For every workload and end-to-end metric the script prints each set's
median and quartiles and their spread (the distance between the
quartiles as a share of the median). Given two sets it also prints a
verdict per metric:

  within   the new median is not worse than the base by more than the
           bound BENCHMARK.json fixes
  worse    it is worse by more than the bound
  unresolved  either set's spread exceeds the bound, unless every new
           run beats every base run

and the per-layer medians side by side with their change. It exits 1
when any metric is worse or unresolved, or when a run is incorrect.
"""

import argparse
import json
import pathlib
import re
import statistics
import sys

HEADER = re.compile(r"^# twq_e2e workload=(\S+)")


def load_runs(directory):
    """{workload: [result dict, ...]} for every run file in `directory`."""
    runs = {}
    for path in sorted(pathlib.Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        workload = next((m.group(1) for m in map(HEADER.match, lines) if m),
                        None)
        if not lines or workload is None:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(f"{path}: no result line", file=sys.stderr)
            continue
        result["file"] = path.name
        runs.setdefault(workload, []).append(result)
    return runs


def summary(values):
    """(median, q1, q3, spread); quartiles as statistics.quantiles."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]]


def verdict(decl, base, new):
    """The verdict for one end-to-end metric of one workload."""
    bound, lower = decl["bound"], decl["better"] == "lower"
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    worse_by = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if max(bspread, nspread) > bound and not all_better:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "within"), worse_by


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    here = pathlib.Path(__file__).resolve().parent
    ap.add_argument("--benchmark",
                    default=str(here.parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()

    bench = json.loads(pathlib.Path(args.benchmark).read_text())
    base = load_runs(args.base)
    new = load_runs(args.new) if args.new else {}
    status = 0

    for group in (base, new):
        for workload, runs in group.items():
            for r in runs:
                if not r["correct"] or r["failed"]:
                    print(f"INCORRECT run {r['file']} ({workload}): "
                          f"failed {r['failed']} of {r['attempted']}")
                    status = 1

    for w in bench["workloads"]:
        name = w["name"]
        print(f"\n== {name}")
        print(f"{'metric':<24}{'base median':>14}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'new median':>14}{'spread':>9}"
              f"{'change':>9}  verdict")
        for decl in bench["end_to_end"]:
            b = values(base.get(name, []), decl["name"])
            n = values(new.get(name, []), decl["name"])
            if not b:
                continue
            bmed, bq1, bq3, bspread = summary(b)
            line = (f"{decl['name']:<24}{fmt(bmed):>14}{fmt(bq1):>12}"
                    f"{fmt(bq3):>12}{bspread:>9.1%}")
            flag = ""
            if bspread > decl["bound"]:
                flag = "  spread above bound"
            elif bspread > decl["bound"] / 3:
                flag = "  spread above bound/3"
            if n:
                nmed, _, _, nspread = summary(n)
                v, worse_by = verdict(decl, b, n)
                status |= v != "within"
                line += (f"{fmt(nmed):>14}{nspread:>9.1%}"
                         f"{-worse_by:>+9.1%}  {v} (bound "
                         f"{decl['bound']:.0%}, {len(b)} vs {len(n)} runs)")
            print(line + flag)

        layer = [d["name"] for d in bench["per_layer"]
                 if values(base.get(name, []), d["name"])]
        if layer:
            print(f"{'per-layer metric':<40}{'base':>14}"
                  + (f"{'new':>14}{'change':>10}" if new else ""))
        for m in layer:
            bmed = statistics.median(values(base[name], m))
            line = f"{m:<40}{fmt(bmed):>14}"
            n = values(new.get(name, []), m)
            if n:
                nmed = statistics.median(n)
                change = (nmed - bmed) / abs(bmed) if bmed else 0.0
                line += f"{fmt(nmed):>14}{change:>+10.1%}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
