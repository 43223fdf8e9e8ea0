"""The benchmark's tracer still fits the program.

``perfbench/tracing.py`` wraps functions by the names their callers look them
up by, binds some of their arguments by name, and reads fields of what they
return.  A refactor that renames any of these breaks ``perfbench/run.py
--trace 1`` without failing a test of the program itself; these tests read
the tracer's own tables, so they fail instead.  Nothing under ``perfbench/``
is changed.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from coverify import cli, logic, replay, world
from coverify.logic import Formula

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # Registered while it runs: its dataclasses look their module up by name.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_wrapped_name_resolves(tracing):
    for module_name, attr, span in tracing.WRAPS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_arguments_the_tracer_binds_by_name():
    # tracing._argument binds check's formula and contact_probability's sample count.
    assert "f" in inspect.signature(world.check).parameters
    assert "samples" in inspect.signature(replay.contact_probability).parameters


def test_formula_nodes_are_dataclasses():
    # tracing.formula_nodes walks a formula through dataclasses.fields.
    nodes = [cls for cls in vars(logic).values() if isinstance(cls, type) and issubclass(cls, Formula)]
    assert {cls.__name__ for cls in nodes} >= {"Atom", "Eq", "Not", "And", "Or", "Implies", "Alw",
                                                "Som", "Dist"}
    assert all(dataclasses.is_dataclass(cls) for cls in nodes if cls is not Formula)


def test_a_traced_verify_and_classify_record_every_layer(tracing, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mini = str(world.bundled_scenario_path("handover_mini"))
    with tracing.Tracer() as tracer:
        verdict = tracer.root("verify", cli.main, ["verify", mini, "--out", "m.trace"])
        tracer.root("classify", cli.main, ["classify", mini, "m.trace", "--samples", "100"])
    assert verdict == cli.EXIT_COUNTEREXAMPLE
    tracing.assert_layers(tracer, {
        "verify": frozenset({"cli", "world", "encode", "sat", "logic", "traceio"}),
        "classify": frozenset({"cli", "world", "traceio", "replay"}),
    })
    # The counters read each solve's `satisfiable`, each classify row's `verdict`,
    # each CNF's size and the formula's nodes.
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert metrics["sat.solve_calls"] == 1 and metrics["sat.unsat_calls"] == 0
    assert metrics["replay.rows"] == metrics["replay.possible_rows"] >= 1
    assert metrics["encode.vars"] > 0 and metrics["world.formula_nodes"] > 0
