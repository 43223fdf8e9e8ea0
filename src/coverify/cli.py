"""Command-line driver.

Subcommands:

* ``verify <scenario.scn>``      -- model check; exit 0 and print SAFE, or
                                    exit 1 and write the counterexample trace
* ``classify <scenario.scn> <trace>`` -- geometric verdicts for the trace's
                                    hazard instants; exit 0 when all
                                    CONFIRMED, 3 when any POSSIBLE/SPURIOUS
* ``export <scenario.scn> cnf|trace-table|timeline`` -- artifact dumps
* ``oracle <scenario.scn>``      -- dev-only exhaustive cross-check

Exit code 2 signals unreadable or invalid input everywhere, and an output
file that cannot be written.

``main(argv)`` is the one way in.  Each subcommand's parser declares its
options with their defaults and names the handler that runs it.  ``main``
may be called any number of times in one process: every call parses with the
same parser, built on the first call, and keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .encode import encode
from .exhaustive import exhaustive_verify
from .logic import Trace, conjoin
from .replay import CONFIRMED, classify
from .reports import render_csv, render_svg, render_text, timeline_svg, trace_table
from .sat import CnfFormula, write_dimacs
from .traceio import TraceFormatError, read_trace, write_trace
from .world import Scenario, check_trace, compile_scenario, load_scenario, model_symbols, verify

__all__ = ["main"]

EXIT_SAFE = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT_ERROR = 2
EXIT_UNCONFIRMED = 3


def _read_trace(scenario: Scenario, trace_path: str) -> Trace:
    """The trace file read against the scenario's symbols: its bound must be the scenario's,
    and it must break no rule of the model (``check_trace``), the risk prices included."""
    trace = read_trace(Path(trace_path).read_text(encoding="utf-8"), model_symbols(scenario))
    broken = check_trace(trace, scenario)  # a trace of another bound raises ValueError
    if broken is not None:
        raise TraceFormatError(broken.message)
    return trace


def _verify(args: argparse.Namespace) -> int:
    """SAFE -> 0; counterexample -> 1 plus a trace file."""
    scenario = load_scenario(args.scenario, bound=args.bound)
    result = verify(scenario)
    if result.safe:
        print("SAFE")
        return EXIT_SAFE
    out = Path(args.out or Path(args.scenario).with_suffix(".trace").name)
    out.write_text(write_trace(result.trace), encoding="utf-8")
    worst = max(v.risk for v in result.violations)
    print(
        f"UNSAFE: {len(result.violations)} hazard instant(s) exceed threshold "
        f"{scenario.threshold} (worst risk {worst}); trace written to {out}"
    )
    return EXIT_COUNTEREXAMPLE


def _classify(args: argparse.Namespace) -> int:
    """Write the hazard report; 0 if everything is CONFIRMED, else 3."""
    if args.samples < 1:
        raise ValueError("sample count must be >= 1")
    if args.seed < 0:
        raise ValueError("seed must be >= 0")
    scenario = load_scenario(args.scenario, bound=args.bound)
    trace = _read_trace(scenario, args.trace)
    rows = classify(trace, scenario, samples=args.samples, seed=args.seed)
    if args.format == "csv":
        rendered = render_csv(rows)
        default_name = f"{scenario.name}_hazards.csv"
    elif args.format == "svg":
        rendered = render_svg(rows, trace)
        default_name = f"{scenario.name}_hazards.svg"
    else:
        rendered = render_text(scenario.name, rows)
        default_name = None
    out = args.out or default_name
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
    else:
        print(rendered, end="")
    return EXIT_SAFE if all(row.verdict == CONFIRMED for row in rows) else EXIT_UNCONFIRMED


def _export(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, bound=args.bound)
    if args.what == "cnf":
        model = compile_scenario(scenario)
        if model.violation is None:  # verify's SAFE without solving, as a CNF
            cnf = CnfFormula(1, ((1,), (-1,)))
        else:
            cnf, _ = encode(conjoin(model.formulas), model.symbols, scenario.bound)
        content, suffix = write_dimacs(cnf), ".cnf"
    else:
        if args.trace is None:
            raise ValueError(f"export {args.what} needs --trace <file>")
        trace = _read_trace(scenario, args.trace)
        if args.what == "trace-table":
            content, suffix = trace_table(trace), ".txt"
        else:
            content, suffix = timeline_svg(trace), ".svg"
    out = Path(args.out or f"{scenario.name}_{args.what.replace('-', '_')}{suffix}")
    out.write_text(content, encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_SAFE


def _oracle(args: argparse.Namespace) -> int:
    """Exhaustive verdict (small scenarios only); mirrors verify's exit codes."""
    safe = exhaustive_verify(load_scenario(args.scenario, bound=args.bound))
    print("SAFE" if safe else "UNSAFE")
    return EXIT_SAFE if safe else EXIT_COUNTEREXAMPLE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` leaves no state on it, so
    every ``main`` call shares it and none pays to build it again."""
    parser = argparse.ArgumentParser(
        prog="coverify",
        description="Bounded model checking of workcell scenarios with geometric trace replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str, out: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("scenario", help="scenario file (.scn)")
        # None keeps the file's bound; a negative one fails as the Scenario loads.
        p.add_argument("--bound", type=int, help="override the trace bound")
        if out:
            p.add_argument("--out", help="output file path")
        return p

    command("verify", _verify, "model check a scenario")

    p_classify = command("classify", _classify, "geometrically classify a counterexample")
    p_classify.add_argument("trace", help="trace file produced by verify")
    p_classify.add_argument("--seed", type=int, default=0,
                            help="Monte Carlo seed (rows with no closed form)")
    p_classify.add_argument("--samples", type=int, default=100_000,
                            help="Monte Carlo samples (rows with no closed form)")
    p_classify.add_argument("--format", choices=("text", "csv", "svg"), default="text")

    p_export = command("export", _export, "dump derived artifacts")
    p_export.add_argument("what", choices=("cnf", "trace-table", "timeline"))
    p_export.add_argument("--trace", help="trace file for trace-table/timeline")

    # The oracle writes no file, so it takes no --out.
    command("oracle", _oracle, "dev-only exhaustive cross-check", out=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input and an unwritable output are reported on stderr as exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
