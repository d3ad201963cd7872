"""Command-line front end: game files in, machine-readable reports out.

Game files are JSON documents with a player count and a map from
player-list keys like "1,3" to rational value strings like "16/3";
missing coalitions default to 0.  All reports print exact rationals as
"p/q" strings; ``--decimal K`` adds rounded decimal renderings.  Exit
codes: 0 success, 1 negative verification, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .coalitions import MAX_PLAYERS, all_coalitions, coalition_of, lex_key, members
from .errors import SolverError
from .game import (
    Payoff,
    TuGame,
    game_properties,
    is_prekernel,
    prekernel_residual,
)
from .prekernel import certify_unique, prekernel_point
from .prenucleolus import kohlberg_criterion, prenucleolus
from .replication import RelatedFamily, convex_combine, replicate_family, segment_sample


class GameFileError(Exception):
    """Malformed game file or manifest."""


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise GameFileError(f"bad rational {text!r}: {exc}") from None


def parse_point(text: str, n: int) -> Payoff:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise GameFileError(f"expected {n} payoff entries, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def _parse_players(key: str, n: int) -> int:
    try:
        players = [int(p) for p in key.replace(" ", "").split(",") if p]
    except ValueError:
        raise GameFileError(f"bad coalition key {key!r}") from None
    if not players or len(set(players)) != len(players):
        raise GameFileError(f"bad coalition key {key!r}: empty or repeated players")
    if any(not 1 <= p <= n for p in players):
        raise GameFileError(f"coalition key {key!r} has players outside 1..{n}")
    return coalition_of(players)


def load_game(path: Path) -> TuGame:
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise GameFileError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict) or "n" not in doc or "coalitions" not in doc:
        raise GameFileError(f"{path}: expected an object with 'n' and 'coalitions'")
    n = doc["n"]
    if type(n) is not int or not 1 <= n <= MAX_PLAYERS:  # bool is an int subclass
        raise GameFileError(f"{path}: 'n' must be an integer in 1..{MAX_PLAYERS}")
    if not isinstance(doc["coalitions"], dict):
        raise GameFileError(f"{path}: 'coalitions' must be an object")
    values = [Fraction(0)] * ((1 << n) - 1)
    for key, raw in doc["coalitions"].items():
        mask = _parse_players(key, n)
        values[mask - 1] = parse_rational(raw)
    if values[-1] <= 0:
        raise GameFileError(f"{path}: grand coalition value must be positive")
    return TuGame(n, tuple(values))


def save_game(path: Path, v: TuGame) -> None:
    coalitions = {}
    for mask in sorted(all_coalitions(v.n), key=lex_key):
        value = v.value(mask)
        if value != 0:
            coalitions[",".join(str(p) for p in members(mask))] = str(value)
    doc = {"n": v.n, "coalitions": coalitions}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _decimal(value: Fraction, digits: int) -> str:
    scaled = value * 10**digits
    whole = (
        scaled.numerator // scaled.denominator
        if scaled >= 0
        else -((-scaled.numerator) // scaled.denominator)
    )
    # round half away from zero on the remainder
    rem2 = 2 * abs(scaled - whole)
    if rem2 >= 1:
        whole += 1 if scaled >= 0 else -1
    sign = "-" if whole < 0 else ""
    digits_str = str(abs(whole)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + digits_str
    return f"{sign}{digits_str[:-digits]}.{digits_str[-digits:]}"


class Report:
    def __init__(self, decimal: Optional[int]):
        self.decimal = decimal
        self.body: dict = {}

    def add(self, key: str, value):
        self.body[key] = self._render(value)

    def _render(self, value):
        if isinstance(value, Fraction):
            return str(value)
        if isinstance(value, (list, tuple)):
            return [self._render(v) for v in value]
        if isinstance(value, dict):
            return {k: self._render(v) for k, v in value.items()}
        return value

    def add_point(self, key: str, point: Sequence[Fraction]):
        self.add(key, list(point))
        if self.decimal is not None:
            self.body[key + "_decimal"] = [_decimal(p, self.decimal) for p in point]

    def add_rational(self, key: str, value: Fraction):
        self.add(key, value)
        if self.decimal is not None:
            self.body[key + "_decimal"] = _decimal(value, self.decimal)

    def emit(self) -> None:
        print(json.dumps(self.body, indent=2))


def _coalition_label(mask: int) -> str:
    return ",".join(str(p) for p in members(mask))


def cmd_prekernel(args, report: Report) -> int:
    v = load_game(Path(args.file))
    point = prekernel_point(v)
    report.add_point("point", point)
    report.add("is_prekernel", is_prekernel(v, point))
    report.add_rational("residual", prekernel_residual(v, point))
    report.emit()
    return 0


def cmd_prenucleolus(args, report: Report) -> int:
    v = load_game(Path(args.file))
    point = prenucleolus(v)
    report.add_point("point", point)
    report.add("kohlberg", kohlberg_criterion(v, point))
    report.emit()
    return 0


def cmd_verify(args, report: Report) -> int:
    v = load_game(Path(args.file))
    point = parse_point(args.point, v.n)
    ok = is_prekernel(v, point)
    report.add_point("point", point)
    report.add("is_prekernel", ok)
    if ok:
        report.add("kohlberg", kohlberg_criterion(v, point))
        cert = certify_unique(v, point)
        if cert is None:
            report.add("certificate", None)
        else:
            report.add(
                "certificate",
                {
                    "rank_full": cert.rank_full,
                    "interior_directions": len(cert.interior_steps),
                    "balanced_levels": cert.balanced_levels,
                    "selected_coalitions": [_coalition_label(m) for m in cert.profile.union()],
                },
            )
    else:
        report.add("reason", "not a pre-kernel point")
    report.emit()
    return 0 if ok else 1


def cmd_h(args, report: Report) -> int:
    v = load_game(Path(args.file))
    point = parse_point(args.point, v.n)
    surplus = prekernel_residual(v, point, "surplus")
    indirect = prekernel_residual(v, point, "indirect")
    report.add_rational("residual", surplus)
    report.add("modes_agree", surplus == indirect)
    report.emit()
    return 0


def cmd_props(args, report: Report) -> int:
    v = load_game(Path(args.file))
    props = game_properties(v)
    for name in (
        "convex",
        "average_convex",
        "zero_monotonic",
        "superadditive",
        "semiconvex",
        "core_nonempty",
    ):
        report.add(name, getattr(props, name))
    report.emit()
    return 0


def cmd_replicate(args, report: Report) -> int:
    path = Path(args.file)
    v = load_game(path)
    mu = parse_rational(args.mu)
    point = prekernel_point(v)
    family = replicate_family(v, point, mu)
    out_dir = Path(args.out) if args.out else path.with_name(path.stem + "_family")
    out_dir.mkdir(parents=True, exist_ok=True)
    base_file = out_dir / "base.json"
    save_game(base_file, v)
    game_entries = []
    for k, (game, scale, delta) in enumerate(zip(family.games, family.mus, family.deltas), 1):
        name = f"game_{k:02d}.json"
        save_game(out_dir / name, game)
        game_entries.append(
            {"file": name, "mu": str(scale), "delta": [str(d) for d in delta]}
        )
    manifest = {
        "n": v.n,
        "base": base_file.name,
        "point": [str(p) for p in family.point],
        "mu": str(family.mu),
        "bound": str(family.bound),
        "games": game_entries,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    report.add_point("point", family.point)
    report.add("family_size", len(family.games))
    report.add_rational("bound", family.bound)
    report.add("manifest", str(manifest_path))
    report.add("verified", True)
    report.emit()
    return 0


def load_family(manifest_path: Path) -> RelatedFamily:
    try:
        doc = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise GameFileError(f"{manifest_path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GameFileError(
            f"{manifest_path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    base_dir = manifest_path.parent
    try:
        base = load_game(base_dir / doc["base"])
        point = tuple(parse_rational(p) for p in doc["point"])
        games = []
        mus = []
        deltas = []
        for entry in doc["games"]:
            games.append(load_game(base_dir / entry["file"]))
            mus.append(parse_rational(entry["mu"]))
            deltas.append(tuple(parse_rational(d) for d in entry["delta"]))
        return RelatedFamily(
            base=base,
            point=point,
            deltas=tuple(deltas),
            mu=parse_rational(doc["mu"]),
            mus=tuple(mus),
            bound=parse_rational(doc["bound"]),
            games=tuple(games),
        )
    except KeyError as exc:
        raise GameFileError(f"{manifest_path}: missing field {exc}") from None
    except TypeError as exc:
        raise GameFileError(f"{manifest_path}: malformed manifest: {exc}") from None


def _parse_weights(text: Optional[str], count: int) -> list[Fraction]:
    if text is None:
        return [Fraction(1, count)] * count
    weights = [parse_rational(p) for p in text.split(",")]
    if len(weights) != count:
        raise GameFileError(f"expected {count} weights, got {len(weights)}")
    return weights


def cmd_combine(args, report: Report) -> int:
    family = load_family(Path(args.manifest))
    members_list = list(family.games) + [family.base]
    weights = _parse_weights(args.weights, len(members_list))
    game = convex_combine(members_list, weights)
    ok = is_prekernel(game, family.point)
    if args.out:
        save_game(Path(args.out), game)
        report.add("out", args.out)
    report.add(
        "game",
        {_coalition_label(m): str(game.value(m)) for m in sorted(all_coalitions(game.n), key=lex_key)},
    )
    report.add_point("point", family.point)
    report.add("is_prekernel", ok)
    report.emit()
    return 0 if ok else 1


def cmd_segment(args, report: Report) -> int:
    family = load_family(Path(args.manifest))
    count = len(family.games) + 1
    weights = _parse_weights(args.weights, count)
    try:
        a_str, b_str = args.pair.split(",")
        index_a, index_b = int(a_str), int(b_str)
    except ValueError:
        raise GameFileError(f"bad --pair {args.pair!r}; expected two indices like 5,10") from None
    if not (0 <= index_a < count - 1 and 0 <= index_b < count - 1):
        raise GameFileError(f"--pair indices must address generated games 0..{count - 2}")
    grid_points = args.grid
    if grid_points < 2:
        raise GameFileError("--grid must be at least 2")
    if args.range:
        try:
            lo_str, hi_str = args.range.split(",")
            lo, hi = parse_rational(lo_str), parse_rational(hi_str)
        except ValueError:
            raise GameFileError(f"bad --range {args.range!r}") from None
    else:
        lo, hi = -weights[index_a], weights[index_b]
    eps_grid = [lo + (hi - lo) * Fraction(k, grid_points - 1) for k in range(grid_points)]
    games = segment_sample(family, index_a, index_b, eps_grid, weights)
    report.add("epsilons", [str(e) for e in eps_grid])
    report.add_point("point", family.point)
    report.add("samples", len(games))
    report.add("all_prekernel", True)
    report.emit()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tusolve",
        description="Exact pre-kernel / pre-nucleolus solver for TU games",
    )
    parser.add_argument("--decimal", type=int, default=None, metavar="DIGITS",
                        help="add decimal renderings with this many digits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prekernel", help="compute a pre-kernel point")
    p.add_argument("file")
    p.set_defaults(func=cmd_prekernel)

    p = sub.add_parser("prenucleolus", help="compute the pre-nucleolus")
    p.add_argument("file")
    p.set_defaults(func=cmd_prenucleolus)

    p = sub.add_parser("verify", help="verify a point: pre-kernel, balancedness, uniqueness")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated rationals")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("h", help="surplus-imbalance residual at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_h)

    p = sub.add_parser("props", help="game property predicates")
    p.add_argument("file")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("replicate", help="generate verified related games")
    p.add_argument("file")
    p.add_argument("--mu", required=True, help="perturbation scale, e.g. 9/10")
    p.add_argument("--out", default=None, help="output directory (default <file>_family)")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("combine", help="convex combination of a replicated family")
    p.add_argument("manifest")
    p.add_argument("--weights", default=None, help="weights: games first, base last")
    p.add_argument("--out", default=None, help="write the combined game here")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("segment", help="sample games along a weight segment")
    p.add_argument("manifest")
    p.add_argument("--pair", required=True, help="two game indices, e.g. 5,10")
    p.add_argument("--grid", type=int, required=True, help="number of sample points")
    p.add_argument("--weights", default=None)
    p.add_argument("--range", default=None, help="epsilon range lo,hi")
    p.set_defaults(func=cmd_segment)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.decimal is not None and args.decimal < 0:
        parser.error("--decimal must be non-negative")
    report = Report(args.decimal)
    try:
        return args.func(args, report)
    except (GameFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
