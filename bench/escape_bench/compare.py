#!/usr/bin/env python3
"""Collect escape_bench runs and compare sets of them.

Run from the repository root. Bounds, directions and units come from
BENCHMARK.json at the repository root.

  collect   run the benchmark for several seeds and save each result:
            compare.py collect --out runs/ --seeds 1-10 [--workloads a,b]
                [--seconds 20] [--trace 0] [--repo parent=../old --repo change=.]
            With two --repo checkouts the runs alternate which one goes
            first, seed by seed (the pairs `judge` needs). Results land in
            <out>/<label>/<workload>/<seed>.json.
  spread    per workload and metric: median, quartiles and spread (IQR /
            median) of one set, flagged against the bound:
            compare.py spread runs/a
  agree     two sets of runs of one commit: every end-to-end median must
            differ by no more than the metric's bound (exit 1 otherwise):
            compare.py agree runs/a runs/b
  judge     parent against change, seed-paired (guide: at least 10 pairs,
            a win in 9 of 10, a median gap wider than the parent's IQR):
            compare.py judge runs/parent runs/change
  baseline  write the per-metric median and IQR of a set, with the host:
            compare.py baseline runs/a --out bench/escape_bench/baseline.json

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def load_spec(path=None):
    """The spec and every metric (end-to-end ones carry a bound) by name."""
    spec = json.loads(Path(path or ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """IQR as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    if parent == 0:
        return 0.0
    gap = (change - parent) / abs(parent)
    return gap if better == "lower" else -gap


def load_runs(directory):
    """{workload: {seed: {metric: value}}} from <dir>/<workload>/<seed>.json."""
    runs = {}
    for path in sorted(Path(directory).glob("*/*.json")):
        result = json.loads(path.read_text())
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(path.parent.name, {})[int(path.stem)] = metrics
    return runs


def values_of(runs, workload, metric):
    return [m[metric] for _, m in sorted(runs.get(workload, {}).items()) if metric in m]


# --- collect -----------------------------------------------------------------

def run_once(repo, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/escape_bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True, timeout=1200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{repo}: {workload} seed {seed} exited {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return lines[-1]


def cmd_collect(args):
    spec, _ = load_spec(args.spec)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    repos = []
    for item in args.repo or ["run=."]:
        label, _, path = item.partition("=")
        repos.append((label, path or "."))
    for i, seed in enumerate(seed_list(args.seeds)):
        order = repos if i % 2 == 0 else list(reversed(repos))
        for workload in workloads:
            for label, repo in order:
                line = run_once(repo, workload, seed, seconds, args.trace)
                out = Path(args.out) / (label if len(repos) > 1 else "") / workload
                out.mkdir(parents=True, exist_ok=True)
                (out / f"{seed}.json").write_text(line + "\n")
                print(f"{label} {workload} seed {seed}: {line}", flush=True)
    return 0


# --- spread / agree / judge / baseline ---------------------------------------

def cmd_spread(args):
    _, spec = load_spec(args.spec)
    runs = load_runs(args.dir)
    print(f"{'workload':<18} {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}")
    ok = True
    for workload in sorted(runs):
        names = sorted({k for m in runs[workload].values() for k in m})
        for metric in names:
            values = values_of(runs, workload, metric)
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            bound = spec.get(metric, {}).get("bound")
            flag = ""
            if bound is not None and metric != "setup_s":
                if s > bound:
                    flag, ok = "OVER BOUND", False
                elif s > bound / 3:
                    flag = "over bound/3"
            print(f"{workload:<18} {metric:<34} {len(values):>3} {q2:>12.6g} {q1:>12.6g}"
                  f" {q3:>12.6g} {s:>8.1%} {'' if bound is None else bound:>6} {flag}")
    return 0 if ok else 1


def cmd_agree(args):
    spec, _ = load_spec(args.spec)
    a, b = load_runs(args.a), load_runs(args.b)
    print(f"{'workload':<18} {'metric':<16} {'median A':>12} {'median B':>12} {'B worse by':>11}"
          f" {'bound':>6}  verdict")
    ok = True
    for workload in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            metric = m["name"]
            va, vb = values_of(a, workload, metric), values_of(b, workload, metric)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            gap = worse_by(ma, mb, m["better"])
            agrees = abs(gap) <= m["bound"]
            ok = ok and agrees
            print(f"{workload:<18} {metric:<16} {ma:>12.6g} {mb:>12.6g} {gap:>11.1%}"
                  f" {m['bound']:>6}  {'agree' if agrees else 'DISAGREE'}")
    return 0 if ok else 1


def verdict(parent, change, better, bound):
    """One metric on one workload, parent vs change (seed-paired); `bound`
    is None for a per-layer metric."""
    seeds = sorted(set(parent) & set(change))
    p = [parent[s] for s in seeds]
    c = [change[s] for s in seeds]
    if len(seeds) < 10:
        return "too few pairs", len(seeds)
    wins = sum(1 for s in seeds if worse_by(parent[s], change[s], better) < 0)
    losses = sum(1 for s in seeds if worse_by(parent[s], change[s], better) > 0)
    mp, mc = statistics.median(p), statistics.median(c)
    q1, _, q3 = quartiles(p)
    gap = worse_by(mp, mc, better)
    if abs(mc - mp) > q3 - q1:
        if wins >= 0.9 * len(seeds):
            return "better", len(seeds)
        if losses >= 0.9 * len(seeds):
            return "worse", len(seeds)
    if bound is None:
        return "no difference shown", len(seeds)
    if max(spread(p), spread(c)) > bound:
        all_better = all(worse_by(x, y, better) < 0 for x in p for y in c)
        return ("better" if all_better else "unresolved"), len(seeds)
    return ("worse" if gap > bound else "no worse"), len(seeds)


def cmd_judge(args):
    _, spec = load_spec(args.spec)
    parent, change = load_runs(args.parent), load_runs(args.change)
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        cells = []
        n = 0
        names = {k for runs in parent[workload].values() for k in runs}
        for metric, m in spec.items():
            if metric not in names:
                continue
            p = {s: v[metric] for s, v in parent[workload].items() if metric in v}
            c = {s: v[metric] for s, v in change[workload].items() if metric in v}
            v, n = verdict(p, c, m["better"], m.get("bound"))
            regressed = regressed or (v == "worse" and "bound" in m)  # gated metrics only
            cells.append(f"{metric}={v}")
        print(f"{workload:<18} n={n:<3} " + "  ".join(cells))
    return 1 if regressed else 0


def cmd_baseline(args):
    runs = load_runs(args.dir)
    fs = "unknown"
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", "."], capture_output=True, text=True,
                            cwd=ROOT).stdout.strip() or fs
    except OSError:
        pass
    out = {
        "host": {"nproc": os.cpu_count(), "kernel": platform.release(), "data_fs": fs},
        "workloads": {},
    }
    for workload in sorted(runs):
        names = sorted({k for m in runs[workload].values() for k in m})
        out["workloads"][workload] = {}
        for metric in names:
            values = values_of(runs, workload, metric)
            q1, q2, q3 = quartiles(values)
            out["workloads"][workload][metric] = {"median": q2, "iqr": q3 - q1,
                                                  "runs": len(values)}
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spec", help="BENCHMARK.json (default: the repository's)")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--repo", action="append", help="label=path of a checkout (repeatable)")
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p = sub.add_parser("agree")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("judge")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("baseline")
    p.add_argument("dir")
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    return {"collect": cmd_collect, "spread": cmd_spread, "agree": cmd_agree,
            "judge": cmd_judge, "baseline": cmd_baseline}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
