"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs one tiny pass of each workload, untraced and traced, and checks that:

* the gate passes on the program as it is (error_ratio 0);
* every metric of BENCHMARK.json is emitted with its unit, and the report
  prints each figure the workload has by name and unit;
* the traced size counters repeat exactly from one run to the next;
* a deliberately wrong expected verdict, and a wrong expected classify
  verdict set whose exit code is still right, each raise error_ratio above 0
  through the check meant to catch it.

Exits 0 when all hold, 1 otherwise.
"""

import json
import sys
from dataclasses import replace

import run

NAMED = {
    "safe-proof": ("verdict_s", "verify_s", "verify_s_max", "peak_rss_mb", "setup_s", "error_ratio"),
    "counterexample": ("verdict_s", "verify_s", "verify_s_max", "classify_s", "peak_rss_mb",
                       "setup_s", "error_ratio"),
    "replay": ("verdict_s", "classify_s", "peak_rss_mb", "setup_s", "error_ratio"),
}


def declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(line: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in line["metrics"].items()}


def run_with_expectations(scenarios, instance: str, changes: dict) -> dict:
    """A tiny counterexample run with one instance's expected answers changed."""
    original = scenarios.counterexample

    def altered(seed, tiny=False):
        return [replace(inst, **changes) if inst.id == instance else inst
                for inst in original(seed, tiny)]

    scenarios.counterexample = altered
    try:
        return run.run_workload("counterexample", seed=0, seconds=0, trace=False, tiny=True)
    finally:
        scenarios.counterexample = original


def main() -> int:
    run.load_program()
    import scenarios

    problems = []
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for name in NAMED:
        record = run.run_workload(name, seed=0, seconds=0, trace=True, tiny=True)
        if record["failures"]:
            problems.append(f"{name}: gate failed on the program as it is: {record['failures']}")
        if emitted(run.result_line(record, False)) != end_to_end:
            problems.append(f"{name}: untraced metrics {emitted(run.result_line(record, False))}")
        if emitted(run.result_line(record, True)) != per_layer:
            problems.append(f"{name}: traced metrics differ from BENCHMARK.json per_layer")
        rows = [line.split() for line in run.report_lines(record)]
        for key in NAMED[name]:
            if not any(row[:1] == [key] and row[2:3] == [run.UNITS[key]] for row in rows):
                problems.append(f"{name}: report does not print {key} with its unit")
        again = run.run_workload(name, seed=0, seconds=0, trace=True, tiny=True)
        counts = {k: v for k, v in record["layers"].items() if run.per_layer_unit(k) != "s"}
        counts_again = {k: v for k, v in again["layers"].items() if run.per_layer_unit(k) != "s"}
        if (record["sizes"], counts) != (again["sizes"], counts_again):
            problems.append(f"{name}: size counters differ between two runs")

    # Wrong expectations the gate must catch: an exit code, and a classify
    # verdict set whose exit code is still right (all rows are POSSIBLE).
    probes = (
        ("handover_point", {"expected": scenarios.SAFE}, "exit "),
        ("handover_mini", {"verdicts": frozenset({"CONFIRMED", "POSSIBLE"})}, "verdicts "),
    )
    for instance, changes, reason in probes:
        record = run_with_expectations(scenarios, instance, changes)
        caught = any(r.startswith(reason) for _, r in record["failures"])
        if not (record["metrics"]["error_ratio"] > 0 and caught):
            problems.append(f"a wrong expectation {changes} on {instance} was not caught "
                            f"by its {reason.strip()} check: {record['failures']}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
