"""Spans around the public functions of each tusolve module, from outside.

A wrapper is installed in every ``tusolve`` module that bound the function,
because names travel by ``from .x import y`` (``rank`` is also bound as
``matrix_rank``).  Each call records a span: name, parent span, start, end
and a small detail taken from its arguments or result.  Spans stay in
memory; ``per_layer`` turns them into per-round metrics, and ``dump`` writes
them out when the run ends.  The hot helpers (``extend_payoff``,
``max_surplus``, ``coalitions.*``) are left alone: their wrappers would cost
more than they measure.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TARGETS = {
    "lp": ["solve_lp"],
    "prenucleolus": ["prenucleolus", "kohlberg_criterion", "is_balanced"],
    "prekernel": ["prekernel_point", "surplus_profile", "quadratic_system",
                  "QuadraticSystem.minimize", "profile_preserving_step", "certify_unique"],
    "linalg": ["rref", "pseudo_inverse", "nullspace", "rank"],
    "game": ["is_prekernel", "game_properties"],
    "replication": ["replicate_family", "critical_bound", "power_system", "family_nullspace",
                    "related_game", "convex_combine", "segment_sample"],
    "cli": ["load_game", "save_game", "main"],
}

DETAIL = {
    "lp.solve_lp": lambda args, result: (len(args[0].eq_matrix) + len(args[0].ub_matrix),
                                         len(args[0].objective)),
    "prenucleolus.is_balanced": lambda args, result: (len(set(args[0])), result is not None),
    "prekernel.certify_unique": lambda args, result: result is not None,
    "linalg.rref": lambda args, result: args[0].nrows * args[0].ncols,
    "replication.replicate_family": lambda args, result: len(result.games),
}

# (metric, unit, better); "calls" and "self_s" are per round of the input list.
PER_LAYER = [
    ("lp.solve_lp.calls", "count", "lower"),
    ("lp.solve_lp.self_s", "s", "lower"),
    ("lp.solve_lp.rows_mean", "rows", "lower"),
    ("lp.solve_lp.cols_mean", "columns", "lower"),
    ("prenucleolus.prenucleolus.calls", "count", "lower"),
    ("prenucleolus.prenucleolus.self_s", "s", "lower"),
    ("prenucleolus.prenucleolus.lp_per_call", "LPs/call", "lower"),
    ("prenucleolus.kohlberg_criterion.calls", "count", "lower"),
    ("prenucleolus.kohlberg_criterion.self_s", "s", "lower"),
    ("prenucleolus.kohlberg_criterion.levels_per_call", "levels/call", "lower"),
    ("prenucleolus.is_balanced.calls", "count", "lower"),
    ("prenucleolus.is_balanced.self_s", "s", "lower"),
    ("prenucleolus.is_balanced.members_mean", "coalitions", "lower"),
    ("prenucleolus.is_balanced.balanced_ratio", "ratio", "higher"),
    ("prekernel.prekernel_point.calls", "count", "lower"),
    ("prekernel.prekernel_point.self_s", "s", "lower"),
    ("prekernel.prekernel_point.rounds_per_call", "rounds/call", "lower"),
    ("prekernel.surplus_profile.calls", "count", "lower"),
    ("prekernel.surplus_profile.self_s", "s", "lower"),
    ("prekernel.quadratic_system.calls", "count", "lower"),
    ("prekernel.quadratic_system.self_s", "s", "lower"),
    ("prekernel.QuadraticSystem.minimize.calls", "count", "lower"),
    ("prekernel.QuadraticSystem.minimize.self_s", "s", "lower"),
    ("prekernel.profile_preserving_step.calls", "count", "lower"),
    ("prekernel.profile_preserving_step.self_s", "s", "lower"),
    ("prekernel.certify_unique.calls", "count", "lower"),
    ("prekernel.certify_unique.self_s", "s", "lower"),
    ("prekernel.certify_unique.certified_ratio", "ratio", "higher"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells_mean", "cells", "lower"),
    ("linalg.pseudo_inverse.calls", "count", "lower"),
    ("linalg.pseudo_inverse.self_s", "s", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("game.is_prekernel.calls", "count", "lower"),
    ("game.is_prekernel.self_s", "s", "lower"),
    ("game.game_properties.calls", "count", "lower"),
    ("game.game_properties.self_s", "s", "lower"),
    ("replication.replicate_family.calls", "count", "lower"),
    ("replication.replicate_family.self_s", "s", "lower"),
    ("replication.critical_bound.self_s", "s", "lower"),
    ("replication.power_system.self_s", "s", "lower"),
    ("replication.family_nullspace.self_s", "s", "lower"),
    ("replication.related_game.calls", "count", "lower"),
    ("replication.related_game.accepted_ratio", "ratio", "higher"),
    ("replication.convex_combine.self_s", "s", "lower"),
    ("replication.segment_sample.self_s", "s", "lower"),
    ("cli.load_game.calls", "count", "lower"),
    ("cli.load_game.self_s", "s", "lower"),
    ("cli.save_game.calls", "count", "lower"),
    ("cli.save_game.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]

# metric -> (span counted, span it is counted under); value = count / calls
PER_CALL = {
    "prenucleolus.prenucleolus.lp_per_call": ("lp.solve_lp", "prenucleolus.prenucleolus"),
    "prenucleolus.kohlberg_criterion.levels_per_call":
        ("prenucleolus.is_balanced", "prenucleolus.kohlberg_criterion"),
    "prekernel.prekernel_point.rounds_per_call":
        ("prekernel.QuadraticSystem.minimize", "prekernel.prekernel_point"),
}


class Tracer:
    def __init__(self):
        # span: [name, parent index or -1, start, end, detail]
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        detail = DETAIL.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                if detail is not None:
                    span[4] = detail(args, result)
                return result
            finally:
                span[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded tusolve module that binds it.

        ``tusolve.prenucleolus`` is the re-exported function, so modules are
        taken from ``sys.modules``."""
        loaded = [m for name, m in sys.modules.items() if name == "tusolve" or name.startswith("tusolve.")]
        for module, names in TARGETS.items():
            home = sys.modules[f"tusolve.{module}"]
            for name in names:
                span = f"{module}.{name}"
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, method, self.wrap(span, getattr(cls, method)))
                    continue
                original = getattr(home, name)
                wrapper = self.wrap(span, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def mark(self) -> int:
        return len(self.spans)

    def round_counts(self, start: int, end: int) -> dict:
        """Span counts by name within one round, for the repeat check."""
        counts: dict = defaultdict(int)
        for span in self.spans[start:end]:
            counts[span[0]] += 1
        return dict(counts)

    def per_layer(self, rounds: int) -> dict:
        spans = self.spans
        calls: dict = defaultdict(int)
        self_time: dict = defaultdict(float)
        for span in spans:
            calls[span[0]] += 1
            self_time[span[0]] += span[3] - span[2]
            if span[1] >= 0:
                self_time[spans[span[1]][0]] -= span[3] - span[2]
        under: dict = defaultdict(int)
        for metric, (child, owner) in PER_CALL.items():
            for span in spans:
                if span[0] != child:
                    continue
                parent = span[1]
                while parent >= 0 and spans[parent][0] != owner:
                    parent = spans[parent][1]
                if parent >= 0:
                    under[metric] += 1

        def details(name):
            return [s[4] for s in spans if s[0] == name and s[4] is not None]

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        lp = details("lp.solve_lp")
        balanced = details("prenucleolus.is_balanced")
        certified = details("prekernel.certify_unique")
        kept = sum(details("replication.replicate_family"))
        values = {
            "lp.solve_lp.rows_mean": mean([rows for rows, _ in lp]),
            "lp.solve_lp.cols_mean": mean([cols for _, cols in lp]),
            "prenucleolus.is_balanced.members_mean": mean([m for m, _ in balanced]),
            "prenucleolus.is_balanced.balanced_ratio": mean([ok for _, ok in balanced]),
            "prekernel.certify_unique.certified_ratio": mean(certified),
            "linalg.rref.cells_mean": mean(details("linalg.rref")),
            "replication.related_game.accepted_ratio":
                kept / calls["replication.related_game"] if calls["replication.related_game"] else 0.0,
        }
        for metric, (_, owner) in PER_CALL.items():
            values[metric] = under[metric] / calls[owner] if calls[owner] else 0.0
        for metric, _, _ in PER_LAYER:
            span, what = metric.rsplit(".", 1)
            if what == "calls":
                per_round, rest = divmod(calls[span], rounds)
                values[metric] = calls[span] / rounds if rest else per_round
            elif what == "self_s":
                values[metric] = self_time[span] / rounds
        return values

    def dump(self, path, header: dict) -> None:
        doc = dict(header, fields=["name", "parent", "start", "end"],
                   spans=[span[:4] for span in self.spans])
        path.write_text(json.dumps(doc))
