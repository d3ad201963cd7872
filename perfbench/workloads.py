"""The benchmark's workloads: seeded input lists and the operation on each.

``build`` turns a workload name and a seed into the run's fixed list of
``Case`` values.  It takes the imported ``tusolve`` package and its ``cli``
module as arguments, so that the caller decides when tusolve is imported
(``setup_probe.py`` times that import).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from inputs import GENERAL, bitmask_order, convex_game, interleave, read_game, seeded_games

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASE_GAME = ROOT / "tests" / "fixtures" / "base_game.json"
OUT = HERE / "out"

MU = "9/10"
GRID = 5


@dataclass
class Case:
    """One input of the fixed list: the game as the checks see it and the
    operation that runs the program on it."""

    label: str
    n: int
    game: dict
    op: Callable


def as_tugame(tusolve, n, game):
    return tusolve.TuGame(n, tuple(game[s] for s in bitmask_order(n)))


def setup_prekernel(tusolve, cli, rng, workdir):
    cases = []
    for label, n, game in seeded_games("prekernel", {4: 30, 5: 90, 6: 30}, rng):
        v = as_tugame(tusolve, n, game)
        cases.append(Case(label, n, game, lambda v=v: tusolve.prekernel_point(v)))
    return cases


def setup_prenucleolus(tusolve, cli, rng, workdir):
    """32 n = 4 games of both kinds and two copies each of four general
    n = 5 games, so that the median lies among the n = 4 operations and the
    90th percentile among the n = 5 ones (see README.md)."""
    four = seeded_games("prenucleolus", {4: 32}, rng)
    five = seeded_games("prenucleolus-n5", {5: 4}, rng, kinds=GENERAL, copies=2)
    cases = []
    for label, n, game in interleave(four, five):
        v = as_tugame(tusolve, n, game)
        cases.append(Case(label, n, game, lambda v=v: tusolve.prenucleolus(v)))
    return cases


def write_game(path: Path, n: int, game) -> None:
    doc = {"n": n, "coalitions": {",".join(map(str, s)): str(w) for s, w in game.items()}}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def family_op(cli, path: Path, folder: Path, weight_units):
    """replicate, props on every generated game, combine, segment.

    Returns the raw reports; they are parsed and checked after the timed
    rounds."""
    out = {"dir": str(folder), "codes": [], "grid": GRID}

    def call(*argv):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
            out["codes"].append(cli.main([str(a) for a in argv]))
        return text.getvalue()

    out["replicate"] = call("replicate", path, "--mu", MU, "--out", folder)
    manifest = folder / "manifest.json"
    files = [entry["file"] for entry in json.loads(manifest.read_text())["games"]]
    out["props"] = [call("props", folder / name) for name in files]
    units = weight_units[: len(files) + 1]
    out["weights"] = [Fraction(u, sum(units)) for u in units]
    out["combine"] = call("combine", manifest, "--weights", ",".join(map(str, out["weights"])))
    out["pair"] = (0, len(files) - 1)
    out["segment"] = call("segment", manifest, "--pair", "0,%d" % out["pair"][1], "--grid", GRID)
    return out


def setup_family(tusolve, cli, rng, workdir):
    """The bundled base game plus seeded strictly convex n = 4 games, written
    to files.  Each operation replicates into a fresh directory."""
    folder = workdir / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    sources = [("base_game", BASE_GAME, *read_game(BASE_GAME))]
    for label, n, game in seeded_games("family", {4: 13}, rng, kinds=[("convex", convex_game)]):
        path = folder / f"{label}.json"
        write_game(path, n, game)
        sources.append((label, path, n, game))
    fresh = itertools.count()
    cases = []
    for label, path, n, game in sources:
        units = [rng.randint(1, 9) for _ in range(1 << n)]

        def op(path=path, units=units):
            return family_op(cli, path, workdir / f"family_{next(fresh)}", units)

        cases.append(Case(label, n, game, op))
    return cases


WORKLOADS = {
    "prekernel": setup_prekernel,
    "prenucleolus": setup_prenucleolus,
    "family": setup_family,
}


def build(workload: str, seed: int, tusolve, cli, workdir) -> list[Case]:
    """The run's fixed input list; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](tusolve, cli, rng, Path(workdir))
