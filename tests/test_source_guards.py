"""Source-level guards on the package.

Unpacking a generator (``f(*(x for x in xs))``) builds a tuple of unknown
length: CPython grows a guessed block and parks the freed tuples on its
per-size free lists, which raises the peak memory of long runs.  Unpacking
a list comprehension allocates the exact size once.
"""

import ast
from pathlib import Path

import tusolve

SOURCES = sorted(Path(tusolve.__file__).parent.glob("*.py"))


def starred_generators(tree):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Starred) and isinstance(node.value, ast.GeneratorExp)
    ]


def test_no_generator_is_unpacked():
    assert len(SOURCES) >= 10
    found = {}
    for path in SOURCES:
        lines = starred_generators(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_guard_sees_the_pattern():
    assert starred_generators(ast.parse("lcm(*(d for d in ds))\nzip(*[r for r in rs])")) == [1]
