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

``main(argv)`` may be called any number of times in one process: every call
parses with the same parser, built on the first call, and keeps no state
between calls.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from .encode import encode
from .exhaustive import exhaustive_verify
from .logic import Trace, conjoin
from .replay import classify
from .reports import HazardReport, render_csv, render_svg, render_text, timeline_svg, trace_table
from .sat import CnfFormula, write_dimacs
from .traceio import TraceFormatError, read_trace, write_trace
from .world import Scenario, check_trace, compile_scenario, load_scenario, model_symbols, verify

__all__ = ["RunConfig", "run_verify", "run_classify", "run_export", "run_oracle", "main"]

EXIT_SAFE = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT_ERROR = 2
EXIT_UNCONFIRMED = 3


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    bound: int | None = None
    seed: int = 0
    samples: int = 100_000
    fmt: str = "text"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        if self.bound is not None and self.bound < 0:
            raise ValueError("bound must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _load(cfg: RunConfig) -> Scenario:
    return load_scenario(cfg.scenario, bound=cfg.bound)


def _input_errors_exit_2(run: Callable[..., int]) -> Callable[..., int]:
    """``run``, reporting bad input and an unwritable output on stderr as exit 2."""

    @functools.wraps(run)
    def guarded(*args, **kwargs) -> int:
        try:
            return run(*args, **kwargs)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR

    return guarded


def _read_trace(scenario: Scenario, trace_path: str) -> Trace:
    """The trace file read against the scenario's symbols: its bound must be the scenario's,
    and it must break no rule of the model (``check_trace``), the risk prices included."""
    trace = read_trace(Path(trace_path).read_text(encoding="utf-8"), model_symbols(scenario))
    broken = check_trace(trace, scenario)  # a trace of another bound raises ValueError
    if broken is not None:
        raise TraceFormatError(broken.message)
    return trace


@_input_errors_exit_2
def run_verify(cfg: RunConfig) -> int:
    """SAFE -> 0; counterexample -> 1 plus a trace file; bad input -> 2."""
    scenario = _load(cfg)
    result = verify(scenario)
    if result.safe:
        print("SAFE")
        return EXIT_SAFE
    out = Path(cfg.out or Path(cfg.scenario).with_suffix(".trace").name)
    out.write_text(write_trace(result.trace), encoding="utf-8")
    worst = max(v.risk for v in result.violations)
    print(
        f"UNSAFE: {len(result.violations)} hazard instant(s) exceed threshold "
        f"{scenario.threshold} (worst risk {worst}); trace written to {out}"
    )
    return EXIT_COUNTEREXAMPLE


@_input_errors_exit_2
def run_classify(cfg: RunConfig, trace_path: str) -> int:
    """Write the hazard report; 0 if everything is CONFIRMED, else 3."""
    scenario = _load(cfg)
    trace = _read_trace(scenario, trace_path)
    rows = classify(trace, scenario, samples=cfg.samples, seed=cfg.seed)
    report = HazardReport(scenario.name, tuple(rows))
    if cfg.fmt == "csv":
        rendered = render_csv(report)
        default_name = f"{scenario.name}_hazards.csv"
    elif cfg.fmt == "svg":
        rendered = render_svg(report, trace)
        default_name = f"{scenario.name}_hazards.svg"
    else:
        rendered = render_text(report)
        default_name = None
    out = cfg.out or default_name
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
    else:
        print(rendered, end="")
    return EXIT_SAFE if report.all_confirmed else EXIT_UNCONFIRMED


@_input_errors_exit_2
def run_export(cfg: RunConfig, what: str, trace_path: str | None = None) -> int:
    scenario = _load(cfg)
    if what == "cnf":
        model = compile_scenario(scenario)
        if model.violation is None:  # verify's SAFE without solving, as a CNF
            cnf = CnfFormula(1, ((1,), (-1,)))
        else:
            cnf, _ = encode(conjoin(model.formulas), model.symbols, scenario.bound)
        content = write_dimacs(cnf)
        suffix = ".cnf"
    elif what in ("trace-table", "timeline"):
        if trace_path is None:
            raise ValueError(f"export {what} needs --trace <file>")
        trace = _read_trace(scenario, trace_path)
        if what == "trace-table":
            content = trace_table(trace)
            suffix = ".txt"
        else:
            content = timeline_svg(trace)
            suffix = ".svg"
    else:
        raise ValueError(f"unknown export kind {what!r}")
    out = Path(cfg.out or f"{scenario.name}_{what.replace('-', '_')}{suffix}")
    out.write_text(content, encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_SAFE


@_input_errors_exit_2
def run_oracle(cfg: RunConfig) -> int:
    """Exhaustive verdict (small scenarios only); mirrors verify's exit codes."""
    safe = exhaustive_verify(_load(cfg))
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

    def scenario(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario file (.scn)")
        p.add_argument("--bound", type=int, default=None, help="override the trace bound")

    def common(p: argparse.ArgumentParser) -> None:
        scenario(p)
        p.add_argument("--out", default=None, help="output file path")

    p_verify = sub.add_parser("verify", help="model check a scenario")
    common(p_verify)

    # An option not given stays out of the namespace: RunConfig holds its default.
    p_classify = sub.add_parser(
        "classify",
        help="geometrically classify a counterexample",
        argument_default=argparse.SUPPRESS,
    )
    common(p_classify)
    p_classify.add_argument("trace", help="trace file produced by verify")
    p_classify.add_argument("--seed", type=int, help="Monte Carlo seed (rows with no closed form)")
    p_classify.add_argument("--samples", type=int, help="Monte Carlo samples (rows with no closed form)")
    p_classify.add_argument("--format", dest="fmt", choices=("text", "csv", "svg"))

    p_export = sub.add_parser("export", help="dump derived artifacts")
    common(p_export)
    p_export.add_argument("what", choices=("cnf", "trace-table", "timeline"))
    p_export.add_argument("--trace", default=None, help="trace file for trace-table/timeline")

    # The oracle writes no file, so it takes no --out.
    scenario(sub.add_parser("oracle", help="dev-only exhaustive cross-check"))
    return parser


@_input_errors_exit_2
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    options = {field.name for field in fields(RunConfig)}
    cfg = RunConfig(**{name: value for name, value in vars(args).items() if name in options})
    if args.command == "verify":
        return run_verify(cfg)
    if args.command == "classify":
        return run_classify(cfg, args.trace)
    if args.command == "export":
        return run_export(cfg, args.what, args.trace)
    return run_oracle(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
