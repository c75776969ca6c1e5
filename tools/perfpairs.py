"""Paired perfbench runs of a parent and a change checkout, summarized as a BENCH_*.json.

    python3 tools/perfpairs.py PARENT CHANGE --out BENCH_N.json

PARENT and CHANGE are kaf checkouts (each with src/ and perfbench/). For
every workload and each of SEEDS the script runs `perfbench/run.py --seconds S
--trace 0` once in each checkout, back to back, alternating which side goes
first (the parent on even pairs). S and the workloads, metrics, units and
bounds come from CHANGE's BENCHMARK.json. After the pairs, HELD_OUT runs
once per side, parent first. Each run's `machine:` line and final JSON
line are parsed; a run that exits non-zero or prints no JSON line stops the
script.

The output holds, per workload and end-to-end metric: each side's median and
quartiles (numpy's linear percentiles), change_over_parent (the ratio of the
medians), parent_iqr, change_wins (pairs in which the change read better;
ties count for neither side), the per-run values in seed order, and a
verdict. The verdict is "worse than bound" when the change's median is worse
than the parent's by more than the bound, else "better in every run" when
every change run beats every parent run, else "unresolved" when the parent's
spread (its highest run less its lowest, over its median, also recorded as
parent_spread) is wider than the bound, else "within bound". Beside the
verdict, claim is "gain" when the change won at least nine tenths of the
pairs and its median is better than the parent's by more than parent_iqr,
else "no gain": the rule a claimed gain must meet. It also holds the seeds,
the held-out seed's values, whether every check passed, the failed
operations per side, and the machine block of the first run (the parent's,
first seed, first workload).
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")
SEEDS = list(range(301, 311))
HELD_OUT = 929


def perfbench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run in checkout `root`: its machine block and final JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfpairs: {' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine:")), None)
    return {"machine": machine, **json.loads(lines[-1])}


def revision(root: str):
    """The short commit hash of checkout `root`, or None when it is not a git checkout."""
    proc = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def stats(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(metric: dict, runs: dict) -> dict:
    """One end-to-end metric of one workload over its pairs."""
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
    parent, change = stats(values["parent"]), stats(values["change"])

    def better(a, b):
        return a > b if higher else a < b

    wins = sum(better(c, p) for p, c in zip(values["parent"], values["change"]))
    ratio = change["median"] / parent["median"]
    worse_by = (1 - ratio) if higher else (ratio - 1)
    spread = (max(values["parent"]) - min(values["parent"])) / parent["median"]
    if worse_by > bound:
        verdict = "worse than bound"
    elif all(better(c, p) for c in values["change"] for p in values["parent"]):
        verdict = "better in every run"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    gain = (change["median"] - parent["median"]) * (1 if higher else -1)
    parent_iqr = parent["q3"] - parent["q1"]
    claim = "gain" if 10 * wins >= 9 * len(values["parent"]) and gain > parent_iqr else "no gain"
    return {"unit": metric["unit"], "better": metric["better"], "bound": bound,
            "parent": parent, "change": change, "change_over_parent": ratio,
            "parent_iqr": parent_iqr, "parent_spread": spread,
            "change_wins": wins,
            "verdict": verdict, "claim": claim, "parent_values": values["parent"],
            "change_values": values["change"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    roots = {"parent": args.parent, "change": args.change}
    machine = None
    report = {"method": f"tools/perfpairs.py: perfbench/run.py --seconds {seconds} --trace 0 "
                        "in the parent and change checkouts, back to back per seed, parent "
                        "first on even pairs; held-out seed once per side afterwards, parent "
                        "first. Medians and quartiles are numpy's linear percentiles over the "
                        "pairs; change_wins counts pairs the change read better; parent_spread "
                        "is the parent's highest run less its lowest, over its median; claim "
                        "is a gain when the change won at least 9/10 of the pairs and its "
                        "median is better by more than the parent's IQR.",
              "parent": revision(args.parent), "workloads": {}}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(SEEDS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                print(f"perfpairs: {workload} seed {seed} {side}", file=sys.stderr, flush=True)
                runs[side].append(perfbench(roots[side], workload, seed, seconds))
        machine = machine or runs["parent"][0]["machine"]
        report["workloads"][workload] = {
            "seeds": SEEDS, "pairs": len(SEEDS),
            "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
            "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "metrics": {m["name"]: summarize(m, runs) for m in bench["end_to_end"]},
        }
    held = {}
    for workload in workloads:
        print(f"perfpairs: {workload} held-out seed {HELD_OUT}", file=sys.stderr, flush=True)
        out = {side: perfbench(roots[side], workload, HELD_OUT, seconds) for side in SIDES}
        held[f"{workload}.{HELD_OUT}"] = {
            **{m["name"]: {side: out[side]["metrics"][m["name"]]["value"] for side in SIDES}
               for m in bench["end_to_end"]},
            "correct": all(out[side]["correct"] for side in SIDES),
            "failed_ops": {side: out[side]["failed"] for side in SIDES},
        }
    report["held_out_seed"] = held
    report["machine"] = machine
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
