"""Byte-for-byte guard on CLI reports and replicated family files.

The files under ``fixtures/golden/`` were written by ``write_outputs``
before the coalition power matrix was built straight from the selected
coalitions and before the two simplex phases shared one loop.  Rewrites of
those paths must leave every output unchanged.  Only the ``manifest`` key
of the ``replicate`` report is dropped, because it names the output
directory.  ``python tests/test_golden.py DIR`` writes the outputs of the
solver on the import path to DIR.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tusolve.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
BASE_GAME = str(FIXTURES / "base_game.json")
SEGMENT_GAME = str(FIXTURES / "segment_game.json")

REPORTS = {
    "prekernel_base_game": ["prekernel", BASE_GAME],
    "prekernel_segment_game": ["prekernel", SEGMENT_GAME],
    "prenucleolus_base_game": ["prenucleolus", BASE_GAME],
    "prenucleolus_segment_game": ["prenucleolus", SEGMENT_GAME],
    "props_base_game": ["props", BASE_GAME],
    "props_segment_game": ["props", SEGMENT_GAME],
    "verify_base_game": ["verify", BASE_GAME, "--point", "44/9,4,32/9,32/9"],
    "h_base_game": ["h", BASE_GAME, "--point", "4,4,4,4"],
}

FAMILY_FILES = ["base.json"] + [f"game_{k:02d}.json" for k in range(1, 12)] + ["manifest.json"]


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def _replicate_report(out_dir):
    body = json.loads(_report(["replicate", BASE_GAME, "--mu", "9/10", "--out", str(out_dir)]))
    del body["manifest"]
    return json.dumps(body, indent=2) + "\n"


def write_outputs(directory):
    directory = Path(directory)
    for name, argv in REPORTS.items():
        (directory / f"{name}.json").write_text(_report(argv))
    (directory / "replicate.json").write_text(_replicate_report(directory / "family"))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report(name):
    assert _report(REPORTS[name]) == (GOLDEN / f"{name}.json").read_text()


def test_replicate_family_files(tmp_path):
    assert _replicate_report(tmp_path) == (GOLDEN / "replicate.json").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == FAMILY_FILES
    for name in FAMILY_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "family" / name).read_bytes(), name


if __name__ == "__main__":
    write_outputs(sys.argv[1])
