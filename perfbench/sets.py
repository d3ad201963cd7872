"""Run sets of benchmark runs, one seed after another, and summarise them.

    python3 perfbench/sets.py --label A --seeds 1-10
    python3 perfbench/sets.py --label T --seeds 1-3 --trace 1
    python3 perfbench/sets.py --label A --load

Each run is ``run.py`` in its own process, on every workload of
BENCHMARK.json and with its run length.  Prints, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (third minus first quartile, as a share of the median), with the
operations attempted and failed; writes every run to
``perfbench/out/sets-<label>.json``, which ``--load`` summarises again
without running.  With ``--trace 1`` it also reports the traced
``ops_per_s`` from each run's trace dump, and each ``self_s`` as a share of
the time of one round.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def run_set(args, bench) -> list[dict]:
    runs = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(proc.returncode)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if args.trace:
                dump = json.loads((HERE / "out" / f"trace-{workload}-seed{seed}.json").read_text())
                result["traced_ops_per_s"] = dump["ops_per_s"]
                result["round_s"] = dump["ops"] / dump["rounds"] / dump["ops_per_s"]
            runs.append(dict(result, workload=workload, seed=seed,
                             wall_s=time.perf_counter() - start))
            print(f"{workload} seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if not args.trace), file=sys.stderr)
    return runs


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--load", action="store_true", help="summarise a stored set, run nothing")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    stored = HERE / "out" / f"sets-{args.label}.json"
    if args.load:
        runs = json.loads(stored.read_text())
    else:
        runs = run_set(args, bench)
        stored.parent.mkdir(exist_ok=True)
        stored.write_text(json.dumps(runs, indent=1))

    print(f"{'workload':13} {'metric':48} {'unit':11} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} bound / share of a round")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        traced = "traced_ops_per_s" in mine[0]
        rows = [(name, [r["metrics"][name]["value"] for r in mine], mine[0]["metrics"][name]["unit"])
                for name in mine[0]["metrics"]]
        if traced:
            rows.append(("traced_ops_per_s", [r["traced_ops_per_s"] for r in mine], "1/s"))
        for name, values, unit in rows:
            median, q1, q3, spread = summary(values)
            note = bounds.get(name, "")
            if traced and name.endswith(".self_s"):
                note = f"{statistics.median(r['metrics'][name]['value'] / r['round_s'] for r in mine):.3f}"
            print(f"{workload:13} {name:48} {unit:11} {median:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.3f} {note}")
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"{workload:13} {'operations attempted / failed':48} {'count':11} {attempted:>11} {failed:>11}")
        print(f"{workload:13} {'wall seconds of the set, longest run':48} {'s':11} "
              f"{sum(r['wall_s'] for r in mine):11.1f} {max(r['wall_s'] for r in mine):11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
