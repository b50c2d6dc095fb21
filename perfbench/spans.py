"""In-memory spans around polaritylab's public entry points.

``Tracer.installed()`` rebinds the public functions of the five modules,
including the names other modules imported from them, to wrappers that
record a span (name, start, end, parent) per call. The program's own files
are not touched, and the original bindings come back when the block ends.
Layer figures are self times: a span's duration minus its children's.
Spans are stamped on the program clock of ``speed.py`` and moved to
reference time with ``to_reference`` before they are summed.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager

from speed import clock


def percentile(values, q: int) -> float:
    """Inclusive q-th percentile; 0.0 for no values."""
    if len(values) <= 1:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _is_none(result) -> bool:
    return result is None


# (polaritylab module, attribute, span name, outcome of the result kept on
# the span); a span's layer is the text before the dot.
CALLS = (
    ("graphs", "canonical_form", "graphs.canon"),
    ("graphs", "graph6_decode", "graphs.codec"),
    ("graphs", "graph6_encode", "graphs.codec"),
    ("cli", "graph6_decode", "graphs.codec"),
    ("cli", "graph6_encode", "graphs.codec"),
    ("obstructions", "graph6_encode", "graphs.codec"),
    ("graphs", "headless_spider", "classes.build"),
    ("classes", "join", "classes.build"),
    ("classes", "disjoint_union", "classes.build"),
    ("classes", "sigma_j", "classes.build"),
    ("classes", "tau_j", "classes.build"),
    ("classes", "sigma_sep", "classes.build"),
    ("classes", "is_cograph", "classes.recognize"),
    ("classes", "is_p4_sparse", "classes.recognize"),
    ("classes", "is_p4_extendible", "classes.recognize"),
    ("classes", "is_62_graph", "classes.recognize"),
    ("classes", "build_decomposition", "classes.decompose"),
    ("polarity", "find_polar_partition", "polarity.solve", _is_none),
    ("polarity", "satisfies", "polarity.satisfies"),
    ("obstructions", "find_polar_partition", "polarity.solve", _is_none),
    ("obstructions", "satisfies", "polarity.satisfies"),
    ("obstructions", "enumerate_minimal_obstructions", "obstructions.enumerate", len),
    ("obstructions", "is_minimal_obstruction", "obstructions.minimal",
     lambda report: report.is_minimal),
)
# generator functions: one span per resumption, with outcome 1 when it yields
GENERATORS = (
    ("graphs", "enumerate_graphs", "graphs.enumerate"),
    ("classes", "generate_class", "classes.generate"),
    ("obstructions", "generate_class", "classes.generate"),
)

NAME, START, END, PARENT, OUTCOME = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.obstruction_generations = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self._open[-1] if self._open else -1, 0])
        self._open.append(idx)
        return idx

    def end(self, idx: int, outcome: int = 0) -> None:
        span = self.spans[idx]
        span[END] = clock()
        span[OUTCOME] = outcome
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _call(self, name, fn, outcome=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if outcome is not None:
                self.spans[idx][OUTCOME] = int(outcome(result))
            return result

        return traced

    def _generator(self, name, fn, count_generation):
        def traced(*args, **kwargs):
            if count_generation:
                self.obstruction_generations += 1
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    idx = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self.end(idx)
                        return
                    except BaseException:
                        self.end(idx)
                        raise
                    self.end(idx, 1)
                    yield item

            return resumed()

        return traced

    @contextmanager
    def installed(self):
        def module(name):
            return importlib.import_module("polaritylab." + name)

        saved = []
        for mod, attr, name, *outcome in CALLS:
            owner = module(mod)
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._call(name, getattr(owner, attr), *outcome))
        for mod, attr, name in GENERATORS:
            owner = module(mod)
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._generator(name, getattr(owner, attr), mod == "obstructions"))
        graph = module("graphs").Graph
        prop = graph.__dict__["canonical_bits"]
        saved.append((graph, "canonical_bits", prop))

        def canonical_bits(g):
            if g._bits is not None:  # cache hit: no search runs
                return prop.fget(g)
            idx = self.begin("graphs.canon")
            try:
                return prop.fget(g)
            finally:
                self.end(idx)

        graph.canonical_bits = property(canonical_bits)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- aggregation --------------------------------------------------------

    def to_reference(self, timeline) -> None:
        """Restamp every span in reference seconds (a ``speed.Timeline``)."""
        for span in self.spans:
            span[START] = timeline(span[START])
            span[END] = timeline(span[END])

    def summary(self) -> dict:
        """Per span name: calls, self time, durations, the sum of outcomes,
        and per parent name the calls and the sum of outcomes."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            rec = out.setdefault(
                span[NAME],
                {"calls": 0, "self_s": 0.0, "durations": [], "outcome": 0, "by_parent": {}},
            )
            dur = span[END] - span[START]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            rec["durations"].append(dur)
            rec["outcome"] += span[OUTCOME]
            parent = self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
            calls, outcome = rec["by_parent"].get(parent, (0, 0))
            rec["by_parent"][parent] = (calls + 1, outcome + span[OUTCOME])
        return out

    def layer_metrics(self) -> dict:
        """Per-layer figures of one pass, as name -> (value, unit)."""
        s = self.summary()
        empty = {"calls": 0, "self_s": 0.0, "durations": [], "outcome": 0, "by_parent": {}}

        def get(name):
            return s.get(name, empty)

        canon, gen, build = get("graphs.canon"), get("classes.generate"), get("classes.build")
        solve = get("polarity.solve")
        built = build["by_parent"].get("classes.generate", (0, 0))[0]
        kept = gen["outcome"]
        screened = gen["by_parent"].get("obstructions.enumerate", (0, 0))[1]
        return {
            "graphs.canon_calls": (canon["calls"], "count"),
            "graphs.canon_s": (canon["self_s"], "s"),
            "graphs.canon_max_ms": (1000 * max(canon["durations"], default=0.0), "ms"),
            "graphs.enumerate_s": (get("graphs.enumerate")["self_s"], "s"),
            "graphs.enumerate_yielded": (get("graphs.enumerate")["outcome"], "count"),
            "graphs.codec_s": (get("graphs.codec")["self_s"], "s"),
            "classes.generate_s": (gen["self_s"] + build["self_s"], "s"),
            "classes.generate_built": (built, "count"),
            "classes.generate_kept": (kept, "count"),
            "classes.generate_keep_ratio": (kept / built if built else 0.0, "ratio"),
            "classes.recognize_calls": (get("classes.recognize")["calls"], "count"),
            "classes.recognize_s": (get("classes.recognize")["self_s"], "s"),
            "classes.decompose_calls": (get("classes.decompose")["calls"], "count"),
            "classes.decompose_s": (get("classes.decompose")["self_s"], "s"),
            "polarity.solve_calls": (solve["calls"], "count"),
            "polarity.solve_s": (solve["self_s"] + get("polarity.satisfies")["self_s"], "s"),
            "polarity.solve_none_frac": (
                solve["outcome"] / solve["calls"] if solve["calls"] else 0.0, "ratio"),
            "polarity.solve_p99_ms": (1000 * percentile(solve["durations"], 99), "ms"),
            "obstructions.class_generations": (self.obstruction_generations, "count"),
            "obstructions.members_screened": (
                screened + get("obstructions.minimal")["calls"], "count"),
            "obstructions.found": (
                get("obstructions.enumerate")["outcome"] + get("obstructions.minimal")["outcome"],
                "count"),
            "obstructions.self_s": (
                get("obstructions.enumerate")["self_s"] + get("obstructions.minimal")["self_s"],
                "s"),
            "cli.self_s": (get("cli.run")["self_s"], "s"),
        }
