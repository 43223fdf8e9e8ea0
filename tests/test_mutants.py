"""The seeded mutants of ``tools/mutants.py`` still fit the source.

The tool itself stays a manual run; this only checks that each mutant's old
text is in its file exactly once, so a refactor that moves it is told to
restate the mutant instead of leaving a list that no longer applies.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_seeded_mutant_applies_once():
    spec = importlib.util.spec_from_file_location("coverify_mutants", ROOT / "tools" / "mutants.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.stale(ROOT) == []
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS) == 14
    assert all(m.old != m.new for m in (tool.CONTROL, *tool.MUTANTS))
    # This test fails on every mutated copy, so the tool's tier-1 run must skip it.
    assert "--ignore=tests/test_mutants.py" in tool.TIER1
