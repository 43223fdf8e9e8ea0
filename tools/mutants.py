"""Run the tier-1 tests against a fixed list of source mutations, one at a time.

Each mutant replaces one piece of text in one source file.  The tool copies
the working tree into a temporary directory and applies each mutant there
alone, runs the tier-1 command within ``TIMEOUT`` seconds and puts the file
back.  A mutant is KILLED when the tests fail, SURVIVED when they pass and
TIMEOUT when they do not finish.  Nothing is written into the tree itself.

``CONTROL`` is an equivalent mutant run first, the same way: it must come out
SURVIVED, which shows both that the copy passes and that the tool can report a
survivor at all.

It exits 0 when every mutant is killed, 1 when one survives or times out, and
2 when a mutant's old text is not in its file exactly once (the source moved on
and the list must follow it) or the control does not survive.

Run:  python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 300.0  # seconds; the unmutated tier-1 run takes about 40 s on a 2-vCPU VM
# ROADMAP's tier-1 command; -x stops at the first failure, which is all a kill needs.
# tests/test_mutants.py is left out: it checks that each old text is still in
# the source, so it fails on every mutated copy and would kill every mutant.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".bench_work", ".benchmarks", "*.egg-info", "build")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


MUTANTS = (
    Mutant("walker-ignores-hold-count", "src/coverify/exhaustive.py",
           "for d in sorted(loc.adjacent) if held >= s.travel_time(loc.id, d))",
           "for d in sorted(loc.adjacent))"),
    Mutant("atom-memo-key-without-polarity", "src/coverify/encode.py",
           "        return f.name, pos\n",
           "        return f.name, True\n"),
    Mutant("dist-of-atom-row-keyed-on-its-atom", "src/coverify/encode.py",
           "        return f.name, pos\n    return id(f), pos\n",
           "        return f.name, pos\n"
           "    if cls is Dist and type(f.operand) is Atom:\n"
           "        return ('dist', f.operand.name), pos\n"
           "    return id(f), pos\n"),
    Mutant("window-cut-skipped-at-n-1", "src/coverify/encode.py",
           "return rows if n > self.k else [row[:n] for row in rows]",
           "return rows if n > self.k or n == 1 else [row[:n] for row in rows]"),
    Mutant("dwell-axiom-labelled-adjacency", "src/coverify/world.py",
           'axioms.append(Axiom("dwell", pos,',
           'axioms.append(Axiom("adjacency", pos,'),
    Mutant("stop-axiom-labelled-slowdown", "src/coverify/world.py",
           "axioms.append(Axiom(mit.kind, hazard.id,",
           'axioms.append(Axiom("slowdown" if mit.kind == "stop" else mit.kind, hazard.id,'),
    Mutant("uip-walk-stops-at-any-seen-literal", "src/coverify/sat.py",
           "if seen[abs(lit)] and level[abs(lit)] == current_level:",
           "if seen[abs(lit)]:"),
    Mutant("lone-literal-case-removed", "src/coverify/sat.py",
           "                if levels.count(conflict_level) == 1:\n"
           "                    self._imply_alone(conflict, levels)\n"
           "                    continue\n",
           ""),
    Mutant("cursor-not-moved-back", "src/coverify/sat.py",
           "            elif var < cursor:\n"
           "                cursor = var\n",
           ""),
    Mutant("cursor-before-heap", "src/coverify/sat.py",
           "            while heap:\n",
           "            while heap and value[self.cursor] != _UNDEF:\n"),
    Mutant("name-accepts-unicode-letters", "src/coverify/logic.py",
           'NAME = r"[A-Za-z_][A-Za-z0-9_]*"',
           'NAME = r"[^\\W\\d]\\w*"'),
    Mutant("main-module-drops-exit-code", "src/coverify/__main__.py",
           "raise SystemExit(main())",
           "main()"),
    Mutant("unit-travel-line-dwells", "src/coverify/world.py",
           "            if duration == 1:\n"
           "                continue\n",
           ""),
    Mutant("guard-lets-value-errors-through", "src/coverify/cli.py",
           "except (OSError, ValueError) as exc:",
           "except OSError as exc:"),
)

# Equivalent to the source for every int n and k; the tests cannot tell them apart.
CONTROL = Mutant("equivalent-control", "src/coverify/encode.py",
                 "return rows if n > self.k else [row[:n] for row in rows]",
                 "return [row[:n] for row in rows] if n <= self.k else rows")


def stale(root: Path) -> list[str]:
    """One line per mutant, the control too, whose old text is not in its file exactly once."""
    out = []
    for m in (CONTROL, *MUTANTS):
        found = (root / m.file).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            out.append(f"{m.name}: old text found {found} times in {m.file}")
    return out


def run_tier1(tree: Path) -> tuple[str, str, float]:
    """(PASSED, FAILED or TIMEOUT, the first failure line or '', seconds) of one tier-1 run."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.Popen(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest's own children go too
        proc.communicate()
        return "TIMEOUT", "", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "PASSED", "", seconds
    first = next((line for line in output.splitlines() if line.startswith(("FAILED", "ERROR"))),
                 output.strip().splitlines()[-1] if output.strip() else "")
    return "FAILED", first, seconds


def run_mutant(tree: Path, m: Mutant) -> str:
    """Apply ``m`` to the copy at ``tree``, run tier-1, restore the file; print and return the verdict."""
    path = tree / m.file
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(m.old, m.new), encoding="utf-8")
    try:
        outcome, first, seconds = run_tier1(tree)
    finally:
        path.write_text(original, encoding="utf-8")
    verdict = {"FAILED": "KILLED", "PASSED": "SURVIVED"}.get(outcome, outcome)
    print(f"{m.name:40} {verdict:9} {seconds:6.1f} s  {first}", flush=True)
    return verdict


def main() -> int:
    problems = stale(ROOT)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="coverify-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if run_mutant(tree, CONTROL) != "SURVIVED":
            print("the equivalent control does not survive", file=sys.stderr)
            return 2
        survivors = sum(run_mutant(tree, m) != "KILLED" for m in MUTANTS)
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
