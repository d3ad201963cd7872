"""Self-test of the output checks: true outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Computes real outputs with tusolve,
requires every check to accept them, then corrupts one thing at a time
and requires the checks to reject each corruption.  Exits 1 if any check
accepts a corrupted output or rejects a true one.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
from fractions import Fraction

import checks
import run
import workloads
from inputs import convex_game, general_game, read_game

failures = 0


def expect(name: str, accepted: bool, want: bool) -> None:
    global failures
    ok = accepted == want
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {'accepted' if accepted else 'rejected'}")


def moved(x, i=0, j=1, amount=Fraction(1, 1000)):
    x = list(x)
    x[i] -= amount
    x[j] += amount
    return tuple(x)


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    import tusolve
    import tusolve.cli as cli

    rng = random.Random("selftest")
    n_base, base = read_game(workloads.BASE_GAME)
    games = [("base game", n_base, base), ("general n=5", 5, general_game(rng, 5)),
             ("convex n=5", 5, convex_game(rng, 5))]
    for label, n, game in games:
        v = workloads.as_tugame(tusolve, n, game)
        x = tusolve.prekernel_point(v)
        expect(f"pre-kernel point, {label}", checks.is_prekernel(game, n, x), True)
        expect(f"pre-kernel point with 1/1000 moved, {label}",
               checks.is_prekernel(game, n, moved(x)), False)
        if n == 4:
            y = tusolve.prenucleolus(v)
            expect(f"pre-nucleolus, {label}", checks.is_prenucleolus(game, n, y), True)
            expect(f"pre-nucleolus with 1/1000 moved, {label}",
                   checks.is_prenucleolus(game, n, moved(y, 2, 3)), False)

    case = workloads.Case("base game", n_base, base, None)
    for workload in ("prekernel", "prenucleolus", "family"):
        for label, bad in [("None", None), ("a short tuple", (Fraction(0),)), ("a list", [0] * n_base)]:
            failed, _ = run.check_outputs(workload, [case], [bad])
            expect(f"{workload} output that is {label} (run goes on)", failed == 0, False)

    folder = workloads.OUT / "selftest-family"
    shutil.rmtree(folder, ignore_errors=True)
    try:
        raw = workloads.family_op(cli, workloads.BASE_GAME, folder, [rng.randint(1, 9) for _ in range(16)])
        out = dict(raw, **{key: json.loads(raw[key]) for key in ("replicate", "combine", "segment")})
        out["props"] = [json.loads(text) for text in raw["props"]]
        problems = checks.family_problems(base, n_base, out)
        expect("family flow", not problems, True)
        for problem in problems:
            print("     ", problem)

        def rejected(name, change):
            corrupt = copy.deepcopy(out)
            change(corrupt)
            expect(name, not checks.family_problems(base, n_base, corrupt), False)

        def flip(k, prop):
            def change(o):
                o["props"][k][prop] = not o["props"][k][prop]
            return change

        def combined_worth(o):
            key = next(iter(o["combine"]["game"]))
            o["combine"]["game"][key] = str(Fraction(o["combine"]["game"][key]) + Fraction(1, 1000))

        def segment_samples(o):
            o["segment"]["samples"] -= 1

        def family_size(o):
            o["replicate"]["family_size"] += 1

        for k, prop in enumerate(["convex", "average_convex", "zero_monotonic", "superadditive",
                                  "semiconvex", "core_nonempty"]):
            rejected(f"props bit {prop} flipped", flip(k, prop))
        rejected("combined game with one worth changed", combined_worth)
        rejected("segment with one sample missing", segment_samples)
        rejected("family size off by one", family_size)

        manifest_path = folder / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        game_path = folder / manifest["games"][2]["file"]
        for name, edit in [
            ("related game with one coalition worth changed",
             lambda: _edit_game(game_path, "1,2", Fraction(1, 1000))),
            ("manifest point with 1/1000 moved",
             lambda: _edit_manifest(manifest_path, lambda m: m.update(
                 point=[str(p) for p in moved([Fraction(p) for p in m["point"]])]))),
            ("manifest scale that is not mu halved",
             lambda: _edit_manifest(manifest_path, lambda m: m["games"][0].update(mu="2/7"))),
        ]:
            saved = {p: p.read_text() for p in (game_path, manifest_path)}
            edit()
            expect(name, not checks.family_problems(base, n_base, out), False)
            for p, text in saved.items():
                p.write_text(text)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


def _edit_game(path, key, amount):
    doc = json.loads(path.read_text())
    doc["coalitions"][key] = str(Fraction(doc["coalitions"].get(key, "0")) + amount)
    path.write_text(json.dumps(doc))


def _edit_manifest(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
