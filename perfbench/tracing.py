"""Outside-in tracing of one benchmark pass.

The tracer replaces functions at the names their callers look them up by
(``coverify.world.check``, ``coverify.sat.solve``, ``coverify.cli.read_trace``
and so on) with wrappers that record a span: name, start, end, parent span
and the benchmark call it belongs to.  Spans stay in memory until the pass
ends.  A layer's self time is its spans' durations minus the time their
child spans cover; the CLI span of each call is the root, so the self times
of all spans add up to the time spent inside ``coverify.cli.main``.

No code under ``src/`` knows about any of this.  If a later change moves a
call so that a wrapper no longer sees it, ``assert_layers`` fails the run
instead of reporting 0 s for that layer.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from coverify.logic import Atom, Eq, Formula

ROOT = "cli.main"

# (module, attribute the caller looks up, span name); the span name's prefix
# is the layer.
WRAPS = (
    ("coverify.cli", "load_scenario", "world.load_scenario"),
    ("coverify.cli", "compile_scenario", "world.compile_scenario"),
    ("coverify.world", "compile_scenario", "world.compile_scenario"),
    ("coverify.cli", "verify", "world.verify"),
    ("coverify.world", "check", "encode.check"),
    ("coverify.encode", "encode", "encode.encode"),
    ("coverify.encode", "decode", "encode.decode"),
    ("coverify.sat", "solve", "sat.solve"),
    ("coverify.encode", "evaluate", "logic.evaluate"),
    ("coverify.cli", "write_trace", "traceio.write_trace"),
    ("coverify.cli", "read_trace", "traceio.read_trace"),
    ("coverify.cli", "classify", "replay.classify"),
    ("coverify.replay", "contact_probability", "geometry.contact_probability"),
    ("coverify.cli", "render_csv", "reports.render_csv"),
    ("coverify.cli", "render_svg", "reports.render_svg"),
    ("coverify.cli", "timeline_svg", "reports.timeline_svg"),
)

# Spans whose arguments and result the counters read after the pass.
KEEP = frozenset({"encode.check", "encode.encode", "sat.solve", "replay.classify",
                  "geometry.contact_probability"})

SELF_TIME = {
    ROOT: "cli.self_s",
    "world.load_scenario": "world.load_s",
    "world.compile_scenario": "world.compile_s",
    "world.verify": "world.verify_s",
    "encode.check": "encode.check_s",
    "encode.encode": "encode.encode_s",
    "encode.decode": "encode.decode_s",
    "sat.solve": "sat.solve_s",
    "logic.evaluate": "logic.evaluate_s",
    "traceio.write_trace": "traceio.write_s",
    "traceio.read_trace": "traceio.read_s",
    "replay.classify": "replay.classify_s",
    "geometry.contact_probability": "geometry.contact_probability_s",
    "reports.render_csv": "reports.render_s",
    "reports.render_svg": "reports.render_s",
    "reports.timeline_svg": "reports.render_s",
}

SIZE_KEYS = ("vars", "clauses", "literals", "binary_clauses", "formula_nodes",
             "formula_nodes_distinct")


@dataclass
class Span:
    name: str
    call: str
    parent: int | None
    start: float
    end: float = 0.0
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None
    fn: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _record(self, name: str, call: str, parent: int | None, fn, args, kwargs):
        index = len(self.spans)
        span = Span(name, call, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name in KEEP:
            span.args, span.kwargs, span.result, span.fn = args, kwargs, result, fn
        return result

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if not self._stack:  # outside a traced call: benchmark's own checks
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            return self._record(name, self.spans[parent].call, parent, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def root(self, call: str, fn, *args):
        """Run fn(*args) as the root span of benchmark call `call`."""
        return self._record(ROOT, call, None, fn, args, {})

    # Results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def layers_by_call(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = defaultdict(set)
        for span in self.spans:
            out[span.call].add("cli" if span.name == ROOT else span.name.split(".")[0])
        return out

    def sizes_by_call(self) -> dict[str, dict[str, int]]:
        """Encoding and formula sizes of every call that encoded something."""
        out: dict[str, dict[str, int]] = {}
        for span in self.spans:
            if span.name == "encode.encode":
                out.setdefault(span.call, {}).update(cnf_sizes(span.result[0]))
            elif span.name == "encode.check":
                nodes, distinct = formula_nodes(_argument(span, "f"))
                sizes = out.setdefault(span.call, {})
                sizes["formula_nodes"] = nodes
                sizes["formula_nodes_distinct"] = distinct
        return out

    def spans_json(self) -> list[dict]:
        return [
            {"name": s.name, "call": s.call, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]


def _argument(span: Span, name: str):
    return inspect.signature(span.fn).bind(*span.args, **span.kwargs).arguments[name]


def cnf_sizes(cnf) -> dict[str, int]:
    lengths = Counter(len(clause) for clause in cnf.clauses)
    return {
        "vars": cnf.num_vars,
        "clauses": len(cnf.clauses),
        "literals": sum(n * count for n, count in lengths.items()),
        "binary_clauses": lengths[2],
    }


def formula_nodes(root: Formula) -> tuple[int, int]:
    """Composite nodes of a formula DAG, counted by identity and by structure.

    Atoms and value equalities are leaves (they map to symbol variables);
    every other node is one the encoder defines.  Nodes with equal type and
    equal children count once by structure.
    """
    canon: dict[int, int] = {}
    classes: dict[tuple, int] = {}
    composite_ids: set[int] = set()
    composite_classes: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in canon:
            continue
        children = [getattr(node, f.name) for f in dataclasses.fields(node)]
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in children if isinstance(c, Formula) and id(c) not in canon)
            continue
        key = (type(node).__name__,) + tuple(
            ("node", canon[id(c)]) if isinstance(c, Formula) else c for c in children
        )
        canon[id(node)] = classes.setdefault(key, len(classes))
        if not isinstance(node, (Atom, Eq)):
            composite_ids.add(id(node))
            composite_classes.add(canon[id(node)])
    return len(composite_ids), len(composite_classes)


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer self times and counters of one traced pass."""
    out: dict[str, float] = {metric: 0.0 for metric in SELF_TIME.values()}
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        out[SELF_TIME[span.name]] += self_time

    solves = [s for s in tracer.spans if s.name == "sat.solve"]
    out["sat.solve_calls"] = len(solves)
    out["sat.unsat_calls"] = sum(1 for s in solves if not s.result.satisfiable)

    sizes = tracer.sizes_by_call().values()
    for key in SIZE_KEYS:
        total = sum(s.get(key, 0) for s in sizes)
        if key.startswith("formula"):
            out[f"world.{key}"] = total
        elif key != "binary_clauses":
            out[f"encode.{key}"] = total
    clauses = sum(s.get("clauses", 0) for s in sizes)
    binary = sum(s.get("binary_clauses", 0) for s in sizes)
    out["encode.binary_clause_share"] = binary / clauses if clauses else 0.0

    rows = [v for s in tracer.spans if s.name == "replay.classify" for v in s.result]
    out["replay.rows"] = len(rows)
    out["replay.possible_rows"] = sum(1 for row in rows if row.verdict == "POSSIBLE")

    mc = [s for s in tracer.spans if s.name == "geometry.contact_probability"]
    out["geometry.mc_calls"] = len(mc)
    out["geometry.mc_samples"] = sum(_argument(s, "samples") for s in mc)

    roots = sum(s.duration for s in tracer.spans if s.parent is None)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - roots
    out["trace.overhead_s"] = wall - untraced_wall
    return out


def assert_layers(tracer: Tracer, expected: dict[str, frozenset[str]]) -> None:
    """Fail loudly when a call crossed a layer that recorded no span."""
    seen = tracer.layers_by_call()
    for call, layers in expected.items():
        missing = sorted(layers - seen.get(call, set()))
        if missing:
            raise RuntimeError(
                f"traced run recorded no span of layer(s) {', '.join(missing)} for {call}; "
                "a wrapper in perfbench/tracing.py no longer sees that call"
            )
