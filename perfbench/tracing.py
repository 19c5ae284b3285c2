"""Span recording around llull's layers, installed from outside the package.

The package binds its functions with `from .x import y`, so a wrapper
placed on the defining module alone misses calls made from the other
modules.  install() therefore replaces every binding of each wrapped
function in every loaded `llull` module, and patches the LlullMatrix
loaders and constructor on the class itself.

A span records its name, start, end and parent.  A span's self time
is its duration minus the time covered by its child spans, so the
self times of one `cli.main` span tree add up to that span exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> (defining module, function name)
SPANS = {
    "cli": ("llull.cli", "main"),
    "ballots.parse": ("llull.ballots", "parse_ballots"),
    "ballots.aggregate": ("llull.ballots", "aggregate"),
    "structure.closure": ("llull.structure", "indirect_scores"),
    "structure.components": ("llull.structure", "components"),
    "structure.check_clc": ("llull.structure", "check_clc"),
    "structure.order_search": ("llull.structure", "find_admissible_order"),
    "projection": ("llull.projection", "clc_project"),
    "zermelo.solve": ("llull.zermelo", "solve"),
    "rates": ("llull.rates", "fraction_like_rates"),
}
LOADERS = ("from_json", "from_csv")


class Recorder:
    """In-memory spans plus the counters read off layer results."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            result = failure = None
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failure = exc
                raise
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
                self._observe(name, result, failure)
            return result

        return wrapper

    def _observe(self, name: str, result, exc) -> None:
        self.counts[name] += 1
        if name == "ballots.parse" and result is not None:
            self.counts["ballots"] += len(result.ballots)
        elif name == "zermelo.solve":
            diagnostics = result[1] if result is not None else getattr(exc, "diagnostics", None)
            if diagnostics is not None:
                self.counts["iterations"] += diagnostics.iterations

    def self_times(self) -> dict[str, float]:
        """Self seconds summed per span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return dict(totals)

    def root_seconds(self) -> list[float]:
        """Duration of each top-level span, in call order."""
        return [end - start for _, start, end, parent in self.spans if parent < 0]


def install(recorder: Recorder) -> None:
    """Wrap every import site of the traced functions, for the life of the process."""
    import llull.cli  # noqa: F401  (loads every module that binds the names)
    from llull.matrix import LlullMatrix

    modules = [m for key, m in sys.modules.items() if key == "llull" or key.startswith("llull.")]
    for name, (module, attr) in SPANS.items():
        original = getattr(sys.modules[module], attr)
        wrapper = recorder.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    for attr in LOADERS:
        loader = LlullMatrix.__dict__[attr].__func__
        setattr(LlullMatrix, attr, classmethod(recorder.wrap("matrix.load", loader)))
    init = LlullMatrix.__init__

    def counted_init(self, *args, **kwargs):
        recorder.counts["matrix.constructions"] += 1
        init(self, *args, **kwargs)

    LlullMatrix.__init__ = counted_init


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds per pass)."""
    own = recorder.self_times()
    counts = recorder.counts

    def per(seconds: float, count: int) -> float:
        return seconds / count * 1e6 if count else 0.0

    parse_s = own.get("ballots.parse", 0.0)
    aggregate_s = own.get("ballots.aggregate", 0.0)
    check_s = own.get("structure.check_clc", 0.0)
    solve_s = own.get("zermelo.solve", 0.0)
    return {
        "cli.self_s": own.get("cli", 0.0),
        "ballots.parse_s": parse_s,
        "ballots.aggregate_s": aggregate_s,
        "ballots.count": counts["ballots"],
        "ballots.parse_us_per_ballot": per(parse_s, counts["ballots"]),
        "ballots.aggregate_us_per_ballot": per(aggregate_s, counts["ballots"]),
        "matrix.load_s": own.get("matrix.load", 0.0),
        "matrix.constructions": counts["matrix.constructions"],
        "structure.closure_calls": counts["structure.closure"],
        "structure.closure_s": own.get("structure.closure", 0.0),
        "structure.components_calls": counts["structure.components"],
        "structure.components_s": own.get("structure.components", 0.0),
        "structure.check_clc_calls": counts["structure.check_clc"],
        "structure.check_clc_s": check_s,
        "structure.check_clc_us_per_call": per(check_s, counts["structure.check_clc"]),
        "structure.order_search_s": own.get("structure.order_search", 0.0),
        "projection.self_s": own.get("projection", 0.0),
        "zermelo.solve_s": solve_s,
        "zermelo.iterations": counts["iterations"],
        "zermelo.us_per_iteration": per(solve_s, counts["iterations"]),
        "rates.self_s": own.get("rates", 0.0),
    }


def unit(name: str) -> str:
    if "us_per_" in name:
        return "us"
    return "s" if name.endswith("_s") else "count"
