import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tusolve.cli import (
    GameFileError,
    _decimal,
    load_family,
    load_game,
    main,
    parse_rational,
    save_game,
)

from tusolve import TuGame
from tusolve.lp import LpOutcome

from helpers import random_game

FIXTURES = Path(__file__).parent / "fixtures"
BASE_GAME = str(FIXTURES / "base_game.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGameFiles:
    def test_round_trip_bit_identical(self, tmp_path, base_game):
        rng = random.Random(16)
        games = [base_game] + [random_game(n, rng) for n in (2, 3, 4)]
        for k, v in enumerate(games):
            path = tmp_path / f"game{k}.json"
            save_game(path, v)
            assert load_game(path) == v

    def test_missing_coalitions_default_zero(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 2, "coalitions": {"1,2": "3/2"}}')
        v = load_game(path)
        assert v.value(1) == 0 and v.value(3) == Fraction(3, 2)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,\n  "coalitions": }')
        with pytest.raises(GameFileError, match="line 2"):
            load_game(path)

    def test_bad_player_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "coalitions": {"1,5": "1", "1,2": "1"}}')
        with pytest.raises(GameFileError, match="1,5"):
            load_game(path)

    def test_nonpositive_grand_value(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "coalitions": {"1": "1"}}')
        with pytest.raises(GameFileError, match="grand coalition"):
            load_game(path)

    def test_parse_rational(self):
        assert parse_rational("16/3") == Fraction(16, 3)
        assert parse_rational("-1/24") == Fraction(-1, 24)
        assert parse_rational("0.9") == Fraction(9, 10)
        with pytest.raises(GameFileError):
            parse_rational("x/y")


class TestDecimalRendering:
    def test_rounding(self):
        assert _decimal(Fraction(44, 9), 4) == "4.8889"
        assert _decimal(Fraction(-1, 3), 2) == "-0.33"
        assert _decimal(Fraction(5, 2), 0) == "3"
        assert _decimal(Fraction(4), 2) == "4.00"


class TestCommands:
    def test_prekernel(self, capsys):
        code, out, _ = run(capsys, "prekernel", BASE_GAME)
        assert code == 0
        doc = json.loads(out)
        assert doc["point"] == ["44/9", "4", "32/9", "32/9"]
        assert doc["is_prekernel"] is True

    def test_prenucleolus(self, capsys):
        code, out, _ = run(capsys, "prenucleolus", BASE_GAME)
        assert code == 0
        doc = json.loads(out)
        assert doc["point"] == ["44/9", "4", "32/9", "32/9"]
        assert doc["kohlberg"] is True

    def test_verify_positive(self, capsys):
        code, out, _ = run(capsys, "verify", BASE_GAME, "--point", "44/9,4,32/9,32/9")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_prekernel"] and doc["kohlberg"]
        assert doc["certificate"]["selected_coalitions"] == ["2", "3", "4", "1,2", "1,3,4"]

    def test_verify_negative_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", BASE_GAME, "--point", "4,4,4,4")
        assert code == 1
        doc = json.loads(out)
        assert doc["is_prekernel"] is False
        assert doc["reason"] == "not a pre-kernel point"

    def test_verify_prekernel_without_certificate(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(FIXTURES / "segment_game.json"), "--point", "2,2,0,0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_prekernel"] is True
        assert doc["kohlberg"] is False
        assert doc["certificate"] is None

    def test_h_command(self, capsys):
        code, out, _ = run(capsys, "h", BASE_GAME, "--point", "4,4,4,4")
        assert code == 0
        doc = json.loads(out)
        assert doc["modes_agree"] is True
        assert Fraction(doc["residual"]) > 0

    def test_props(self, capsys):
        code, out, _ = run(capsys, "props", BASE_GAME)
        assert code == 0
        doc = json.loads(out)
        assert doc["average_convex"] and doc["zero_monotonic"] and not doc["convex"]

    def test_decimal_flag(self, capsys):
        code, out, _ = run(capsys, "--decimal", "3", "prekernel", BASE_GAME)
        assert code == 0
        doc = json.loads(out)
        assert doc["point_decimal"] == ["4.889", "4.000", "3.556", "3.556"]

    def test_input_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "prekernel", str(bad))
        assert code == 2
        assert "error" in err

    def test_broken_invariant_is_a_solver_error(self, capsys, monkeypatch):
        module = sys.modules["tusolve.prenucleolus"]
        monkeypatch.setattr(module, "solve_lp", lambda program: LpOutcome(status="bogus"))
        code, out, err = run(capsys, "prenucleolus", BASE_GAME)
        assert code == 1
        assert out == ""
        assert err == "solver error: level LP returned bogus\n"
        assert "Traceback" not in err

    def test_reports_deterministic(self, capsys):
        _, out1, _ = run(capsys, "prenucleolus", BASE_GAME)
        _, out2, _ = run(capsys, "prenucleolus", BASE_GAME)
        assert out1 == out2


@pytest.fixture(scope="module")
def family_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("family")
    code = main(["replicate", BASE_GAME, "--mu", "9/10", "--out", str(out_dir)])
    assert code == 0
    return out_dir


class TestFamilyCommands:
    def test_replicate_writes_manifest_and_games(self, family_dir, capsys):
        capsys.readouterr()
        manifest = json.loads((family_dir / "manifest.json").read_text())
        assert len(manifest["games"]) == 11
        assert manifest["point"] == ["44/9", "4", "32/9", "32/9"]
        for entry in manifest["games"]:
            assert (family_dir / entry["file"]).exists()

    def test_manifest_round_trip(self, family_dir):
        family = load_family(family_dir / "manifest.json")
        assert len(family.games) == 11
        assert family.point == (Fraction(44, 9), 4, Fraction(32, 9), Fraction(32, 9))

    def test_combine_with_weights(self, family_dir, capsys):
        weights = ",".join(f"{k}/48" for k in (1, 3, 8, 1, 2, 4, 3, 5, 7, 9, 2, 3))
        code, out, _ = run(
            capsys, "combine", str(family_dir / "manifest.json"), "--weights", weights
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["is_prekernel"] is True

    def test_segment(self, family_dir, capsys):
        weights = ",".join(f"{k}/48" for k in (1, 3, 8, 1, 2, 4, 3, 5, 7, 9, 2, 3))
        code, out, _ = run(
            capsys,
            "segment",
            str(family_dir / "manifest.json"),
            "--pair", "5,10",
            "--grid", "5",
            "--weights", weights,
            "--range=-1/24,1/24",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 5 and doc["all_prekernel"] is True

    def test_replicate_on_class_boundary(self, capsys, tmp_path):
        # v(S) = |S|^2 is symmetric, so at the equal split the singleton {k}
        # and the triple N - {l} tie for the maximum surplus of k over l
        path = tmp_path / "squares.json"
        save_game(path, TuGame(4, tuple(Fraction(m.bit_count() ** 2) for m in range(1, 16))))
        out_dir = tmp_path / "family"
        code, out, err = run(capsys, "replicate", str(path), "--mu", "9/10", "--out", str(out_dir))
        assert code == 1 and out == ""
        assert err == (
            "solver error: the pre-kernel point lies on the boundary of its selection"
            " class, so the interior condition fails: no positive step in direction"
            " (1, 2); tied maximum surpluses: of 2 over 3 by {2}, {1,2,4}; of 2 over 4"
            " by {2}, {1,2,3}; of 3 over 2 by {3}, {1,3,4}; of 4 over 2 by {4}, {1,3,4}\n"
        )
        assert not out_dir.exists()


MALFORMED_GAMES = {
    "n_bool": '{"n": true, "coalitions": {"1": "1"}}',
    "n_huge": '{"n": 200, "coalitions": {}}',
    "n_above_cap": '{"n": 21, "coalitions": {}}',
    "n_string": '{"n": "2", "coalitions": {"1,2": "1"}}',
    "n_float": '{"n": 2.0, "coalitions": {"1,2": "1"}}',
    "n_zero": '{"n": 0, "coalitions": {}}',
    "coalitions_list": '{"n": 2, "coalitions": []}',
    "coalitions_string": '{"n": 2, "coalitions": "1,2"}',
    "coalitions_null": '{"n": 2, "coalitions": null}',
    "value_null": '{"n": 2, "coalitions": {"1,2": null}}',
    "value_list": '{"n": 2, "coalitions": {"1,2": [1]}}',
    "value_zero_denominator": '{"n": 2, "coalitions": {"1,2": "1/0"}}',
    "key_not_players": '{"n": 2, "coalitions": {"x": "1", "1,2": "1"}}',
    "key_repeated_player": '{"n": 2, "coalitions": {"1,1": "1", "1,2": "1"}}',
    "grand_negative": '{"n": 2, "coalitions": {"1,2": "-1"}}',
    "top_level_list": "[]",
    "truncated": '{"n": 2,',
    "empty": "",
}

MALFORMED_MANIFESTS = {
    "manifest_list": "[]",
    "base_not_string": '{"base": 1, "point": [], "games": [], "mu": "1", "bound": "1"}',
    "games_not_list": '{"base": "b.json", "point": ["1"], "games": 5, "mu": "1", "bound": "1"}',
    "point_not_list": '{"base": "b.json", "point": 5, "games": [], "mu": "1", "bound": "1"}',
    "entry_not_object": '{"base": "b.json", "point": ["1"], "games": ["x"], "mu": "1", "bound": "1"}',
    "missing_fields": '{"base": "b.json"}',
}


class TestMalformedInput:
    """No malformed file makes the CLI raise (and so print a traceback):
    each one exits 2 with a one-line message."""

    @pytest.mark.parametrize("name", sorted(MALFORMED_GAMES))
    def test_game_file(self, name, capsys, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_text(MALFORMED_GAMES[name])
        code, out, err = run(capsys, "prekernel", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(MALFORMED_MANIFESTS))
    def test_manifest(self, name, capsys, tmp_path):
        (tmp_path / "b.json").write_text('{"n": 1, "coalitions": {"1": "1"}}')
        path = tmp_path / f"{name}.json"
        path.write_text(MALFORMED_MANIFESTS[name])
        code, out, err = run(capsys, "combine", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("pair", ["50,60", "0,11", "-1,2"])
    def test_segment_pair_out_of_range(self, pair, family_dir, capsys):
        code, out, err = run(
            capsys, "segment", str(family_dir / "manifest.json"), f"--pair={pair}", "--grid", "3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_decimal_digits(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--decimal", "-1", "prekernel", BASE_GAME])
        assert exit_info.value.code == 2
        assert "--decimal must be non-negative" in capsys.readouterr().err

    def test_n_checked_before_allocating(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 1000000000, "coalitions": []}')
        with pytest.raises(GameFileError, match="1..20"):
            load_game(path)
