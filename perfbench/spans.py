"""Span recorder for the traced benchmark run, installed from outside the package.

`Tracer.install` replaces the public functions listed in `TARGETS` at every
attribute of a loaded ``ifgames`` module that holds them, which is where each
caller looks them up (``ifgames.cli.build_matrix``,
``ifgames.value_engine.security_level_lp``, ...).  Methods are replaced on
their class.  Nothing under ``src/`` changes, and `uninstall` restores every
attribute, so untraced passes in the same process run the original code.

Each call to a wrapped function records a span (name, start, end, parent, op
id) in memory; a call nested in a span of the same name, such as recursion,
is folded into the outer span.  Counting targets record no span, only how
many outermost calls were made.  A layer's self time is the duration of its
spans minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from functools import wraps

# The span the harness opens around each ``cli.main`` call; its self time is
# the CLI's own work (argparse, file reads, lifting, rendering).
ROOT = "cli.main"


def _formula_nodes(f) -> int:
    n, stack = 0, [f]
    while stack:
        node = stack.pop()
        n += 1
        if hasattr(node, "body"):
            stack.append(node.body)
        stack.extend(getattr(node, "branches", ()))
    return n


def _count_parse(tracer, args, result):
    tracer.counts["formula.nodes"] += _formula_nodes(result)


def _count_build(tracer, args, result):
    tracer.counts["semantic_game.cells"] += result.matrix.m * result.matrix.n
    tracer.counts["semantic_game.collapsed_loci"] += len(result.collapsed_loci)


def _count_reduce(tracer, args, result):
    u, reduced = args[0], result[0]
    tracer.counts["matrix_game.reduce_calls"] += 1
    tracer.counts["matrix_game.reduce_in_cells"] += u.m * u.n
    tracer.counts["matrix_game.reduce_kept_cells"] += reduced.m * reduced.n
    tracer.reductions.append((tracer.op, (u.m, u.n), (reduced.m, reduced.n)))


def _count_mixed(tracer, args, result):
    tracer.counts["matrix_game.mixed_strategy_entries"] += len(args[0].probs)


def _count_lp(tracer, args, result):
    m, n = len(args[0]), len(args[0][0])
    tracer.counts["linalg.lp_calls"] += 1
    tracer.counts["linalg.lp_tableau_cells"] += (n + 1) * (m + n + 2)


# (module, attribute, span name or None for count-only, count name, hook)
TARGETS = (
    ("ifgames.formula", "parse", "formula.parse", None, _count_parse),
    ("ifgames.formula", "validate", "formula.validate", None, None),
    ("ifgames.structure", "load_structure", "structure.load", None, None),
    ("ifgames.structure", "holds_qf", None, "structure.holds_qf_calls", None),
    ("ifgames.semantic_game", "build_matrix", "semantic_game.build", None, _count_build),
    ("ifgames.matrix_game", "reduce", "matrix_game.reduce", None, _count_reduce),
    ("ifgames.matrix_game", "MixedStrategy.__post_init__", "matrix_game.mixed_strategy", None, _count_mixed),
    ("ifgames.matrix_game", "scaled_numerators", "matrix_game.weighted_sums", None, None),
    ("ifgames.matrix_game", "weighted_col_sums", "matrix_game.weighted_sums", None, None),
    ("ifgames.matrix_game", "weighted_row_sums", "matrix_game.weighted_sums", None, None),
    ("ifgames.matrix_game", "tallies", "matrix_game.tallies", None, None),
    ("ifgames.linalg", "security_level_lp", "linalg.lp", None, _count_lp),
    ("ifgames.value_engine", "solve_value", "value_engine.solve_value", None, None),
    ("ifgames.value_engine", "detect_trivial", "value_engine.shortcut", None, None),
    ("ifgames.value_engine", "balanced_value", "value_engine.shortcut", None, None),
    ("ifgames.value_engine", "verify_equilibrium", "value_engine.verify", None, None),
    ("ifgames.applications", "hashing_equilibrium", "applications.hashing_equilibrium", None, None),
)

# The metric each span name's self time is reported as, the root first.
SELF_METRICS = {ROOT: "cli.self_s", **{t[2]: t[2] + "_s" for t in TARGETS if t[2]}}


class Tracer:
    """Spans and counts of one or more traced passes, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id, child time]
        self.counts: Counter = Counter()
        self.reductions: list[tuple] = []  # (op id, shape in, shape out) per reduce call
        self.op: str | None = None
        self._open: list[int] = []
        self._depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int | None:
        if self._open and self.spans[self._open[-1]][0] == name:
            return None
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int | None) -> None:
        if index is None:
            return
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._open.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        out = dict.fromkeys(SELF_METRICS, 0.0)
        for name, start, end, _, _, child in self.spans:
            out[name] += (end - start) - child
        return out

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, span: str | None, count: str | None, hook):
        tracer = self

        if span is None:

            @wraps(fn)
            def counted(*args, **kwargs):
                if tracer._depth[count] == 0:
                    tracer.counts[count] += 1
                tracer._depth[count] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._depth[count] -= 1

            return counted

        @wraps(fn)
        def spanned(*args, **kwargs):
            index = tracer.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None and index is not None:
                hook(tracer, args, result)
            return result

        return spanned

    def install(self) -> None:
        """Wrap every target; a missing target is an error, never a zero."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span, count, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, name, None)
            if original is None:
                raise RuntimeError(f"trace target {module_name}.{attr} is missing")
            wrapper = self._wrap(original, span, count, hook)
            if owner_name:
                self._patch(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ifgames" or mod_name.startswith("ifgames."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
