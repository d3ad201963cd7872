"""Closed-loop benchmark of tusolve: one caller, one operation at a time.

    python3 perfbench/run.py --workload prekernel --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``setup_s`` is the median of several cold set-ups, each timed in a fresh
process from before ``import tusolve`` to where the first operation would
start (``setup_probe.py``).  The run then builds the same seeded inputs in
its own process (``workloads.py``) and walks the fixed input list in whole
rounds, timing every operation, and starts another round only while the
previous round still fits in ``--seconds``.  After the timed rounds every
output is checked by ``checks.py``, which shares no code with tusolve.  The
last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics (see ``tracing.py``) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER, Tracer
from workloads import BASE_GAME, HERE, OUT, SRC, WORKLOADS, build

SETUP_REPEATS = 7

# (metric, unit, better, bound)
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("op_s_p90", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def cold_setups(workload: str, seed: int, workdir) -> list[float]:
    """Seconds of ``SETUP_REPEATS`` cold set-ups, each in a fresh process
    started after the previous one has ended (see ``setup_probe.py``)."""
    times = []
    for k in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(workdir / f"setup_{k}")],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def timed_rounds(cases, seconds, tracer):
    """Whole rounds over the list; another round starts only if the last
    one would still end within ``seconds``."""
    times, outputs, marks = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            marks.append(tracer.mark())
        for case in cases:
            t0 = time.perf_counter()
            try:
                result = case.op()
            except Exception as exc:  # an operation that raises counts as failed
                result = exc
            times.append(time.perf_counter() - t0)
            outputs.append(result)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    if tracer is not None:
        marks.append(tracer.mark())
    return times, outputs, marks


def output_problems(workload, case, result, verdicts, index):
    """Disagreements between one operation's output and the checks."""
    import checks  # loads numpy and scipy, so only after peak_rss_mb is read

    if workload == "family":
        reports = {key: json.loads(result[key]) for key in ("replicate", "combine", "segment")}
        reports["props"] = [json.loads(text) for text in result["props"]]
        return checks.family_problems(case.game, case.n, dict(result, **reports))
    key = (index, tuple(result))
    if key not in verdicts:
        check = checks.is_prekernel if workload == "prekernel" else checks.is_prenucleolus
        verdicts[key] = check(case.game, case.n, result)
    return [] if verdicts[key] else [f"wrong point {[str(p) for p in result]}"]


def check_outputs(workload, cases, outputs):
    """Returns (failed, wrong): operations that failed, and those among them
    whose output was wrong rather than missing."""
    failed = wrong = 0
    verdicts = {}
    for k, result in enumerate(outputs):
        case = cases[k % len(cases)]
        if isinstance(result, Exception):
            failed += 1
            print(f"{case.label}: raised {result!r}", file=sys.stderr)
            continue
        try:
            problems = output_problems(workload, case, result, verdicts, k % len(cases))
        except Exception as exc:  # a check that cannot read the output fails it
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failed += 1
            wrong += 1
            print(f"{case.label}: " + "; ".join(problems), file=sys.stderr)
    return failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "tusolve" / "__init__.py", BASE_GAME):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from the root of a tusolve checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup_times = cold_setups(args.workload, args.seed, workdir)
        import tusolve
        import tusolve.cli

        cases = build(args.workload, args.seed, tusolve, tusolve.cli, workdir / "run")
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        times, outputs, marks = timed_rounds(cases, args.seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, wrong = check_outputs(args.workload, cases, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(times) // len(cases)
    e2e = {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_p90": statistics.quantiles(times, n=10)[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_mb,
    }
    print(f"{args.workload} seed {args.seed}: {len(times)} ops in {rounds} rounds, "
          f"{failed} failed, {e2e['ops_per_s']:.4f} ops/s", file=sys.stderr)
    if tracer is not None:
        per_round = [tracer.round_counts(a, b) for a, b in zip(marks, marks[1:])]
        if any(c != per_round[0] for c in per_round):
            print("warning: span counts differ between rounds", file=sys.stderr)
        values = tracer.per_layer(rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                     "ops": len(times), "ops_per_s": e2e["ops_per_s"]})
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    print(json.dumps({"correct": wrong == 0, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
