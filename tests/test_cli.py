"""CLI: exit-code contract, artifact files, determinism."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import coverify
from coverify import cli, world
from coverify.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_INPUT_ERROR,
    EXIT_SAFE,
    EXIT_UNCONFIRMED,
    build_parser,
    main,
)
from coverify.sat import read_dimacs, solve
from coverify.traceio import read_trace
from coverify.world import (
    bundled_scenario_path,
    compile_scenario,
    extract_violations,
    load_scenario,
    verify,
)

HANDOVER = str(bundled_scenario_path("handover"))
HANDOVER_STOP = str(bundled_scenario_path("handover_stop"))
HANDOVER_POINT = str(bundled_scenario_path("handover_point"))
HANDOVER_MINI = str(bundled_scenario_path("handover_mini"))


@pytest.fixture
def trace_file(tmp_path):
    out = tmp_path / "handover.trace"
    assert main(["verify", HANDOVER, "--out", str(out)]) == EXIT_COUNTEREXAMPLE
    return out


@pytest.fixture
def sampled_case(tmp_path):
    """handover_mini with both POIs at radius 0.6: the threshold 1.2 is longer
    than the unit cell's edge, so the hazard row has no closed form and
    classify samples it.  Returns the scenario and the trace verify writes."""
    text = Path(HANDOVER_MINI).read_text(encoding="utf-8")
    assert text.count("radius 0.05") == 2
    scenario = tmp_path / "mini_r06.scn"
    scenario.write_text(text.replace("radius 0.05", "radius 0.6"), encoding="utf-8")
    trace = tmp_path / "mini_r06.trace"
    assert main(["verify", str(scenario), "--out", str(trace)]) == EXIT_COUNTEREXAMPLE
    return str(scenario), str(trace)


def _src_env() -> dict[str, str]:
    """The environment with the imported package's source directory first on PYTHONPATH,
    for a child interpreter run from another directory."""
    src = str(Path(coverify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _drop_column(trace_text: str, name: str) -> str:
    """The trace text without the named symbol's column."""
    bound, header, *rows = [line.split() for line in trace_text.splitlines()]
    at = header.index(name)  # "# vars" is two fields, a row's instant one
    del header[at]
    for row in rows:
        del row[at - 1]
    return "".join(" ".join(fields) + "\n" for fields in (bound, header, *rows))


class TestVerify:
    def test_unmitigated_counterexample(self, tmp_path, capsys):
        out = tmp_path / "t.trace"
        assert main(["verify", HANDOVER, "--out", str(out)]) == EXIT_COUNTEREXAMPLE
        assert "UNSAFE" in capsys.readouterr().out
        assert out.exists()

    def test_trace_file_reparses(self, trace_file):
        scenario = load_scenario(HANDOVER)
        symbols = compile_scenario(scenario).symbols
        trace = read_trace(trace_file.read_text(), symbols)
        assert trace.bound == scenario.bound

    def test_mitigated_scenario_safe(self, capsys):
        assert main(["verify", HANDOVER_STOP]) == EXIT_SAFE
        assert capsys.readouterr().out.strip() == "SAFE"

    def test_missing_file_is_input_error(self, capsys):
        assert main(["verify", "missing.scn"]) == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    def test_invalid_scenario_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("[layout]\nloc L1 box 0 0 0\n")
        assert main(["verify", str(bad)]) == EXIT_INPUT_ERROR

    def test_bound_override(self, tmp_path):
        out = tmp_path / "b0.trace"
        code = main(["verify", HANDOVER_MINI, "--bound", "0", "--out", str(out)])
        # at bound 0 the task cannot complete, so the model has no trace
        assert code == EXIT_SAFE

    def test_byte_identical_traces_across_runs(self, tmp_path):
        first, second = tmp_path / "a.trace", tmp_path / "b.trace"
        main(["verify", HANDOVER, "--out", str(first)])
        main(["verify", HANDOVER, "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


# SHA-256 of the trace `verify --out` writes; None where the verdict is SAFE.
# A change that alters one of these must update it and say why in CHANGES.md.
GOLDEN_TRACES = [
    (HANDOVER, None, "898de8e76893f9dfbf018fd351328ad54ea84af5f011c51f3e81d6fffd0f7a56"),
    (HANDOVER, 30, "5e1ee299f321b544b248475216b263471017572f7b1c549da6e7dd97de88a54a"),
    (HANDOVER_POINT, None, "898de8e76893f9dfbf018fd351328ad54ea84af5f011c51f3e81d6fffd0f7a56"),
    (HANDOVER_POINT, 30, "5e1ee299f321b544b248475216b263471017572f7b1c549da6e7dd97de88a54a"),
    (HANDOVER_MINI, None, "a39f072b05a0e49e13216df37a2a5a46471e0fa267f29bc372c764a81beb99eb"),
    (HANDOVER_MINI, 30, "d731d71807e6ab2f56362b270fceba7239c4cbab5d00cccbb87197895621e305"),
    (HANDOVER_STOP, None, None),
    (HANDOVER_STOP, 30, None),
]


@pytest.mark.parametrize(
    "scenario, bound, digest",
    GOLDEN_TRACES,
    ids=[f"{Path(path).stem}-{bound or 'own'}" for path, bound, _ in GOLDEN_TRACES],
)
def test_golden_trace(tmp_path, scenario, bound, digest):
    out = tmp_path / "golden.trace"
    argv = ["verify", scenario, "--out", str(out)]
    if bound is not None:
        argv += ["--bound", str(bound)]
    code = main(argv)
    if digest is None:
        assert code == EXIT_SAFE
        assert not out.exists()
    else:
        assert code == EXIT_COUNTEREXAMPLE
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of `classify handover <trace> --seed 7 --samples 100000` in CSV and
# SVG, over the trace `verify` writes at the scenario's own bound and at 30.
# Every POSSIBLE row of these reports is a same-cell contact with the closed
# form, so seed and samples do not show in them: the test asks seed 1 for the
# same bytes.  A change that alters one of these must update it and say why in
# CHANGES.md.
GOLDEN_REPORTS = [
    (None, "csv", "b1fe30314b2403c2e257bdb49d6f3bf877da95ddc09d7e882a5f287edc39c212"),
    (None, "svg", "aecc3b67ca89fe5d84d59767b447c7792062b033cb5967c7a307a2e69dc42680"),
    (30, "csv", "37672a4a35452f16481d9bc8d05f4fe0f7e61e21d76cb71a7605522b4879428d"),
    (30, "svg", "d6c0eb73619a4238f37d9f583df7746897ffaf8a97f2a10d630c55bae44c39f2"),
]


@pytest.mark.parametrize(
    "bound, fmt, digest",
    GOLDEN_REPORTS,
    ids=[f"handover-{bound or 'own'}-{fmt}" for bound, fmt, _ in GOLDEN_REPORTS],
)
def test_golden_classify_report(tmp_path, bound, fmt, digest):
    trace, report = tmp_path / "golden.trace", tmp_path / f"golden.{fmt}"
    bound_args = [] if bound is None else ["--bound", str(bound)]
    assert main(["verify", HANDOVER, "--out", str(trace), *bound_args]) == EXIT_COUNTEREXAMPLE
    for seed in ("7", "1"):
        argv = ["classify", HANDOVER, str(trace), *bound_args, "--format", fmt,
                "--seed", seed, "--samples", "100000", "--out", str(report)]
        assert main(argv) == EXIT_UNCONFIRMED
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, seed


# SHA-256 of `classify <sampled_case> --format csv --seed 1` at the default
# 100,000 samples: one POSSIBLE row, h1 at instant 6 with probability 0.98739,
# drawn by the Monte Carlo sampler.  A change to the sampler's stream, its
# arithmetic or the CSV writer shows here.
GOLDEN_SAMPLED_CSV = "2e3543e89a53e58bc42a97c53ce5e914d5c3ce73a601d4684ea3e1bb0f91c266"


def test_golden_sampled_classify_csv(tmp_path, sampled_case):
    scenario, trace = sampled_case
    report = tmp_path / "sampled.csv"
    argv = ["classify", scenario, trace, "--format", "csv", "--seed", "1", "--out", str(report)]
    assert main(argv) == EXIT_UNCONFIRMED
    assert "h1,6,POSSIBLE," in report.read_text()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_SAMPLED_CSV


# SHA-256 of the DIMACS text `export <scenario> cnf` writes, at the scenario's
# own bound and at 30.  The encoder's variable numbering and clause order and
# the DIMACS writer all show in it.  A change that alters one of these must
# update it and say why in CHANGES.md.
GOLDEN_CNFS = [
    (HANDOVER, None, "3ca45c22530736408f08e86a423103f9d60c9e0cb454a65f03f0e9b99b0b8678"),
    (HANDOVER, 30, "f6584f2efab443ba362d5e1f21bf401b10e8f0a618236b482aabf975d2c0ef61"),
    (HANDOVER_MINI, None, "138f7c3ce77b53f1a8610bb69a7e3f3922945ae6c0dc72b2e2fd8df81f6c8c04"),
    (HANDOVER_MINI, 30, "376bb85e0f45e91f967b9cbd4e1a57793c490bff5b6e0febfd7e9f392200551a"),
    (HANDOVER_STOP, None, "1d3c757dbf7c1723d22f18f3fa688f4664ef67a831dc5187f5d0a42db51ea87e"),
    (HANDOVER_STOP, 30, "780cfc6f262af5941f4ca1ea32381d2974e4b9d68586fcfd2d2069499781a7e8"),
]


@pytest.mark.parametrize(
    "scenario, bound, digest",
    GOLDEN_CNFS,
    ids=[f"{Path(path).stem}-{bound or 'own'}" for path, bound, _ in GOLDEN_CNFS],
)
def test_golden_cnf(tmp_path, scenario, bound, digest):
    out = tmp_path / "golden.cnf"
    argv = ["export", scenario, "cnf", "--out", str(out)]
    if bound is not None:
        argv += ["--bound", str(bound)]
    assert main(argv) == EXIT_SAFE
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "scenario", [HANDOVER, HANDOVER_MINI, HANDOVER_STOP], ids=lambda path: Path(path).stem
)
def test_export_cnf_is_the_cnf_verify_solves(tmp_path, monkeypatch, scenario):
    solved = []

    def recording_solve(cnf):
        solved.append(cnf)
        return solve(cnf)

    monkeypatch.setattr("coverify.sat.solve", recording_solve)
    for bound_args in ([], ["--bound", "30"]):
        solved.clear()
        main(["verify", scenario, "--out", str(tmp_path / "t.trace"), *bound_args])
        out = tmp_path / "exported.cnf"
        assert main(["export", scenario, "cnf", "--out", str(out), *bound_args]) == EXIT_SAFE
        assert solved == [read_dimacs(out.read_text())], bound_args


def test_travel_time_far_past_the_bound_compiles_as_bound_plus_one(tmp_path):
    # A dwell looking back further than the bound is false at every instant, so an
    # edge of a billion instants costs what one of bound + 1 = 7 instants does.
    text = Path(HANDOVER_MINI).read_text(encoding="utf-8")
    verdicts, cnfs = [], []
    for travel in (7, 10**9):
        scenario = tmp_path / f"mini_{travel}.scn"
        scenario.write_text(f"{text}travel L2 L3 {travel}\n", encoding="utf-8")
        t0 = time.perf_counter()
        verdicts.append(main(["verify", str(scenario)]))
        assert time.perf_counter() - t0 < 1.0
        out = tmp_path / f"mini_{travel}.cnf"
        assert main(["export", str(scenario), "cnf", "--out", str(out)]) == EXIT_SAFE
        cnfs.append(out.read_bytes())
    assert verdicts[0] == verdicts[1]
    assert cnfs[0] == cnfs[1]


def test_an_explicit_unit_travel_time_changes_nothing(tmp_path):
    # A unit edge needs no dwell rule, whether the file states its travel time or not.
    text = Path(HANDOVER_MINI).read_text(encoding="utf-8")
    outputs = []
    for name, content in (("plain", text), ("unit", f"{text}travel L1 L2 1\n")):
        scenario, trace, cnf = (tmp_path / f"{name}.{suffix}" for suffix in ("scn", "trace", "cnf"))
        scenario.write_text(content, encoding="utf-8")
        codes = [main(["verify", str(scenario), "--out", str(trace)]),
                 main(["oracle", str(scenario)]),
                 main(["export", str(scenario), "cnf", "--out", str(cnf)])]
        assert codes == [EXIT_COUNTEREXAMPLE, EXIT_COUNTEREXAMPLE, EXIT_SAFE], name
        outputs.append((trace.read_bytes(), cnf.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("scenario", [HANDOVER, HANDOVER_MINI], ids=lambda path: Path(path).stem)
def test_verify_trace_round_trips_with_priced_risk(tmp_path, scenario):
    out = tmp_path / "t.trace"
    assert main(["verify", scenario, "--out", str(out)]) == EXIT_COUNTEREXAMPLE
    s = load_scenario(scenario)
    trace = read_trace(out.read_text(), compile_scenario(s).symbols)
    assert trace == verify(s).trace
    assert any(name.startswith("risk_") for name in trace.variables)
    assert extract_violations(trace, s) == verify(s).violations


class TestClassify:
    def test_cube_cells_report_possible_and_exit_3(self, tmp_path, trace_file):
        out = tmp_path / "report.csv"
        argv = ["classify", HANDOVER, str(trace_file), "--format", "csv", "--out", str(out),
                "--samples", "20000", "--seed", "11"]
        assert main(argv) == EXIT_UNCONFIRMED
        assert "POSSIBLE" in out.read_text()

    def test_point_cells_all_confirmed_exit_0(self, tmp_path):
        trace = tmp_path / "point.trace"
        assert main(["verify", HANDOVER_POINT, "--out", str(trace)]) == EXIT_COUNTEREXAMPLE
        argv = ["classify", HANDOVER_POINT, str(trace), "--out", str(tmp_path / "r.csv"),
                "--format", "csv"]
        assert main(argv) == EXIT_SAFE

    def test_no_row_over_the_threshold_exits_0(self, tmp_path, capsys):
        # No hazard instant of handover_mini is priced above 6, so at threshold 6
        # its counterexample has no row to classify, and no row is unconfirmed.
        trace = tmp_path / "mini.trace"
        assert main(["verify", HANDOVER_MINI, "--out", str(trace)]) == EXIT_COUNTEREXAMPLE
        lax = tmp_path / "lax.scn"
        lax.write_text(Path(HANDOVER_MINI).read_text(encoding="utf-8") + "threshold 6\n")
        capsys.readouterr()
        assert main(["classify", str(lax), str(trace)]) == EXIT_SAFE
        assert capsys.readouterr().out == (
            "scenario: lax\nno hazard instants above the threshold\n"
            "summary: 0 confirmed, 0 possible, 0 spurious\n"
        )

    def test_trace_with_transit_columns_is_input_error(self, tmp_path, capsys):
        # Transit columns name symbols the model does not declare, so such a trace is rejected.
        trace = tmp_path / "mini.trace"
        assert main(["verify", HANDOVER_MINI, "--out", str(trace)]) == EXIT_COUNTEREXAMPLE
        bound, names, *rows = trace.read_text().splitlines()
        assert names.startswith("# vars ") and "transit_" not in names
        old = [bound, names.replace("# vars ", "# vars transit_p_a transit_p_g ")]
        old += [row.replace(" ", " 0 1 ", 1) for row in rows]
        trace.write_text("\n".join(old) + "\n")
        capsys.readouterr()
        for argv in (["classify", HANDOVER_MINI, str(trace)],
                     ["export", HANDOVER_MINI, "timeline", "--trace", str(trace),
                      "--out", str(tmp_path / "t.svg")]):
            assert main(argv) == EXIT_INPUT_ERROR
            assert "trace symbol 'transit_p_a' is not declared" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", ["nan", "inf", "0"])
    def test_bad_dt_override_is_input_error(self, tmp_path, dt, capsys):
        # The scenario's dt line is the only source of seconds per instant; --dt is a usage error.
        with pytest.raises(SystemExit) as error:
            main(["classify", HANDOVER_MINI, str(tmp_path / "mini.trace"), "--dt", dt])
        assert error.value.code == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --dt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            ("poi kuka p_g radius 0.05", "poi kuka p_g radius nan", "finite radius"),
            ("loc L3 box 2 0 0 3 1 1", "loc L3 box 2 0 0 3 nan 1", "must be finite"),
        ],
    )
    def test_non_finite_geometry_is_input_error(self, tmp_path, capsys, old, new, message):
        trace = tmp_path / "mini.trace"
        assert main(["verify", HANDOVER_MINI, "--out", str(trace)]) == EXIT_COUNTEREXAMPLE
        text = Path(HANDOVER_MINI).read_text(encoding="utf-8")
        assert old in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(old, new), encoding="utf-8")
        capsys.readouterr()
        assert main(["classify", str(bad), str(trace)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_negative_seed_is_input_error(self, trace_file, capsys):
        assert main(["classify", HANDOVER, str(trace_file), "--seed", "-1"]) == EXIT_INPUT_ERROR
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_sample_count_below_one_is_input_error(self, capsys):
        # Checked before any file is read: neither of these exists.
        argv = ["classify", "missing.scn", "missing.trace", "--samples", "0"]
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr() == ("", "error: sample count must be >= 1\n")

    def test_mismatched_trace_is_input_error(self, tmp_path, trace_file, capsys):
        assert main(["classify", HANDOVER_MINI, str(trace_file)]) == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    def test_repeated_vars_header_is_input_error(self, tmp_path, capsys):
        # Were the second, longer "# vars" to win, row 0 would be one field
        # short: the reader must reject the header, not index past the row.
        trace = tmp_path / "mini.trace"
        assert main(["verify", HANDOVER_MINI, "--out", str(trace)]) == EXIT_COUNTEREXAMPLE
        bound, names, first, *rows = trace.read_text().splitlines()
        lines = [bound, names, first, names + " extra", *(row + " 0" for row in rows)]
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["classify", HANDOVER_MINI, str(trace)]) == EXIT_INPUT_ERROR
        assert "line 4: repeated '# vars' header" in capsys.readouterr().err

    def test_trace_missing_a_declared_column_is_input_error(self, tmp_path, trace_file, capsys):
        partial = tmp_path / "partial.trace"
        partial.write_text(_drop_column(trace_file.read_text(), "risk_h1"))
        assert main(["classify", HANDOVER, str(partial)]) == EXIT_INPUT_ERROR
        assert "no column for declared symbol 'risk_h1'" in capsys.readouterr().err

    def test_text_format_prints(self, capsys, trace_file):
        assert main(["classify", HANDOVER, str(trace_file), "--samples", "5000"]) == EXIT_UNCONFIRMED
        assert "summary:" in capsys.readouterr().out

    def test_svg_report(self, tmp_path, trace_file):
        out = tmp_path / "report.svg"
        main(["classify", HANDOVER, str(trace_file), "--format", "svg", "--out", str(out),
              "--samples", "5000"])
        ET.fromstring(out.read_text())

    def test_csv_deterministic_for_fixed_seed(self, tmp_path, sampled_case):
        scenario, trace = sampled_case
        outs = []
        for name, seed in (("x.csv", 3), ("y.csv", 3), ("z.csv", 2)):
            out = tmp_path / name
            argv = ["classify", scenario, trace, "--format", "csv", "--out", str(out),
                    "--samples", "10000", "--seed", str(seed)]
            assert main(argv) == EXIT_UNCONFIRMED
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]


class TestExport:
    def test_cnf_round_trips_through_dimacs(self, tmp_path):
        out = tmp_path / "model.cnf"
        assert main(["export", HANDOVER_MINI, "cnf", "--out", str(out)]) == EXIT_SAFE
        cnf = read_dimacs(out.read_text())
        assert solve(cnf).satisfiable  # the unmitigated model has a counterexample

    def test_cnf_is_unsatisfiable_when_no_hazard_can_break_the_threshold(self, tmp_path):
        scenario = tmp_path / "mini_threshold6.scn"
        scenario.write_text(Path(HANDOVER_MINI).read_text() + "threshold 6\n")
        assert main(["verify", str(scenario)]) == EXIT_SAFE
        out = tmp_path / "model.cnf"
        assert main(["export", str(scenario), "cnf", "--out", str(out)]) == EXIT_SAFE
        assert not solve(read_dimacs(out.read_text())).satisfiable

    def test_trace_table_lists_instant_rows(self, tmp_path, trace_file):
        out = tmp_path / "table.txt"
        argv = ["export", HANDOVER, "trace-table", "--trace", str(trace_file), "--out", str(out)]
        assert main(argv) == EXIT_SAFE
        lines = out.read_text().splitlines()
        scenario = load_scenario(HANDOVER)
        assert len(lines) == scenario.bound + 2  # header + one row per instant

    def test_timeline_svg_has_band_per_symbol(self, tmp_path, trace_file):
        out = tmp_path / "timeline.svg"
        argv = ["export", HANDOVER, "timeline", "--trace", str(trace_file), "--out", str(out)]
        assert main(argv) == EXIT_SAFE
        root = ET.fromstring(out.read_text())
        texts = {el.text for el in root.iter() if el.tag.endswith("text")}
        scenario = load_scenario(HANDOVER)
        symbols = compile_scenario(scenario).symbols
        for prop in symbols.propositions:
            assert prop.name in texts

    def test_timeline_of_a_trace_missing_a_column_is_an_error(self, tmp_path, trace_file, capsys):
        partial, out = tmp_path / "partial.trace", tmp_path / "timeline.svg"
        partial.write_text(_drop_column(trace_file.read_text(), "risk_h1"))
        argv = ["export", HANDOVER, "timeline", "--trace", str(partial), "--out", str(out)]
        assert main(argv) == EXIT_INPUT_ERROR
        assert "no column for declared symbol 'risk_h1'" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_of_another_bound_is_an_input_error(self, tmp_path, capsys):
        trace, out = tmp_path / "mini.trace", tmp_path / "artifact"
        assert main(["verify", HANDOVER_MINI, "--out", str(trace)]) == EXIT_COUNTEREXAMPLE
        capsys.readouterr()
        bound = load_scenario(HANDOVER_MINI).bound
        for command in (["classify", HANDOVER_MINI, str(trace)],
                        ["export", HANDOVER_MINI, "trace-table", "--trace", str(trace)],
                        ["export", HANDOVER_MINI, "timeline", "--trace", str(trace)]):
            assert main([*command, "--bound", str(bound + 3), "--out", str(out)]) == EXIT_INPUT_ERROR
            message = f"trace bound {bound} differs from scenario bound {bound + 3}"
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_timeline_without_trace_is_an_error(self, capsys):
        assert main(["export", HANDOVER, "timeline"]) == EXIT_INPUT_ERROR
        assert "needs --trace" in capsys.readouterr().err


class TestMain:
    def test_verify_dispatch(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", HANDOVER_STOP]) == EXIT_SAFE

    def test_oracle_dispatch(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["oracle", HANDOVER_MINI]) == EXIT_COUNTEREXAMPLE
        assert "UNSAFE" in capsys.readouterr().out

    def test_second_start_is_an_input_error_for_both_oracles(self, tmp_path, capsys):
        text = Path(HANDOVER_MINI).read_text(encoding="utf-8")
        bad = tmp_path / "two_starts.scn"
        bad.write_text(text.replace("[task]", "start p_g L1\nstart p_g L4\n\n[task]"))
        for command in ("verify", "oracle"):
            assert main([command, str(bad)]) == EXIT_INPUT_ERROR
            assert "'p_g' has more than one start" in capsys.readouterr().err

    def test_second_travel_time_is_an_input_error_for_both_oracles(self, tmp_path, capsys):
        text = Path(HANDOVER_MINI).read_text(encoding="utf-8")
        bad = tmp_path / "two_travel_times.scn"
        bad.write_text(text + "travel L1 L2 1\ntravel L2 L1 1\n")
        for command in ("verify", "oracle"):
            assert main([command, str(bad)]) == EXIT_INPUT_ERROR
            assert "edge 'L2'-'L1' has more than one travel time" in capsys.readouterr().err

    def test_oracle_takes_no_out_option(self, tmp_path, capsys):
        # The oracle writes no file, so --out is a usage error, not silently ignored.
        out = tmp_path / "mini.trace"
        with pytest.raises(SystemExit) as error:
            main(["oracle", HANDOVER_MINI, "--out", str(out)])
        assert error.value.code == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not out.exists()

    def test_dt_is_not_an_option(self, capsys):
        # Seconds per instant come from the scenario's dt line; no command reads an override.
        # TestClassify.test_bad_dt_override_is_input_error covers classify.
        for argv in (
            ["verify", HANDOVER_MINI],
            ["export", HANDOVER_MINI, "cnf"],
            ["oracle", HANDOVER_MINI],
        ):
            with pytest.raises(SystemExit) as error:
                main([*argv, "--dt", "0.5"])
            assert error.value.code == EXIT_INPUT_ERROR
            assert "unrecognized arguments: --dt" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["bound", "bound 5 junk", "threshold", "dt"])
    def test_param_without_one_value_is_an_input_error(self, tmp_path, capsys, line):
        bad = tmp_path / "bad_param.scn"
        bad.write_text(Path(HANDOVER_MINI).read_text(encoding="utf-8") + line + "\n")
        assert main(["verify", str(bad)]) == EXIT_INPUT_ERROR
        assert f"expected: {line.split()[0]} <" in capsys.readouterr().err

    def test_oracle_walks_long_travel_times(self, capsys):
        assert main(["oracle", HANDOVER]) == EXIT_COUNTEREXAMPLE
        assert capsys.readouterr().out == "UNSAFE\n"
        assert main(["oracle", HANDOVER_STOP]) == EXIT_SAFE
        assert capsys.readouterr().out == "SAFE\n"

    def test_classify_dispatch(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", HANDOVER_POINT, "--out", "p.trace"]) == EXIT_COUNTEREXAMPLE
        code = main(["classify", HANDOVER_POINT, "p.trace", "--samples", "2000"])
        assert code == EXIT_SAFE

    def test_every_invocation_ends_in_a_contract_code(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argvs = [
            ["verify", HANDOVER_STOP],
            ["verify", HANDOVER, "--out", "t.trace"],
            ["verify", "nope.scn"],
            ["classify", HANDOVER, "t.trace", "--samples", "2000"],
        ]
        codes = [EXIT_SAFE, EXIT_COUNTEREXAMPLE, EXIT_INPUT_ERROR, EXIT_UNCONFIRMED]
        assert [main(argv) for argv in argvs] == codes
        # The same argv as `python -m coverify`: __main__ must hand main's code to the process.
        runs = [subprocess.run([sys.executable, "-m", "coverify", *argv], cwd=tmp_path,
                               env=_src_env(), capture_output=True, timeout=120)
                for argv in argvs]
        assert [run.returncode for run in runs] == codes

    @pytest.mark.parametrize("command", ["verify", "classify", "export"])
    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, command):
        trace = tmp_path / "mini.trace"
        assert main(["verify", HANDOVER_MINI, "--out", str(trace)]) == EXIT_COUNTEREXAMPLE
        capsys.readouterr()
        out = tmp_path / "missing" / "artifact"
        argv = {
            "verify": ["verify", HANDOVER_MINI],
            "classify": ["classify", HANDOVER_MINI, str(trace), "--format", "csv"],
            "export": ["export", HANDOVER_MINI, "cnf"],
        }[command]
        assert main([*argv, "--out", str(out)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(out) in captured.err


class _Unwritable:
    """A stdout that refuses every write, as a full disk does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        pass


class TestOneErrorPath:
    """Every command reports a bad input, and an output it cannot write, as exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [["verify", HANDOVER_STOP], ["oracle", HANDOVER_MINI], ["export", HANDOVER_MINI, "cnf"]],
        ids=["verify", "oracle", "export"],
    )
    def test_unwritable_stdout_is_an_input_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdout", _Unwritable())
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def _mini_trace(tmp_path) -> Path:
    trace = tmp_path / "mini.trace"
    assert main(["verify", HANDOVER_MINI, "--out", str(trace)]) == EXIT_COUNTEREXAMPLE
    return trace


class TestAsciiNumeralsInTraces:
    """The bound and the instant indices of a trace file are ASCII digits."""

    @pytest.mark.parametrize(
        "old, new, line",
        [("# bound 6", "# bound \u00b2", 1), ("# bound 6", "# bound \u0666", 1),
         ("\n0 ", "\n\u0660 ", 3)],
        ids=["superscript-bound", "arabic-indic-bound", "arabic-indic-instant"],
    )
    def test_non_ascii_numeral_exits_2_naming_its_line(self, tmp_path, capsys, old, new, line):
        trace = _mini_trace(tmp_path)
        text = trace.read_text(encoding="utf-8")
        assert text.count(old) == 1
        trace.write_text(text.replace(old, new), encoding="utf-8")
        capsys.readouterr()
        for argv in (["classify", HANDOVER_MINI, str(trace)],
                     ["export", HANDOVER_MINI, "timeline", "--trace", str(trace),
                      "--out", str(tmp_path / "timeline.svg")]):
            assert main(argv) == EXIT_INPUT_ERROR
            assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_an_id_that_cannot_name_its_symbol_fails_on_its_line_for_both_oracles(tmp_path, capsys):
    # The oracle never compiles the model; the loader checks each id on its own line.
    # test_world.py covers the poi, robot and hazard ids.
    bad = tmp_path / "dash.scn"
    bad.write_text(Path(HANDOVER_MINI).read_text(encoding="utf-8").replace("L3", "L-3"))
    for command in ("verify", "oracle"):
        assert main([command, str(bad)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: line 8: invalid domain value: 'L-3'\n"


def test_a_retract_mitigation_fails_on_its_line_for_every_command(tmp_path, monkeypatch, capsys):
    # Every mitigation is a speed reaction; retract is no mitigation kind, and no command
    # reads past the scenario line that names it.
    monkeypatch.chdir(tmp_path)
    assert main(["verify", HANDOVER_MINI, "--out", "mini.trace"]) == EXIT_COUNTEREXAMPLE
    text = Path(HANDOVER_MINI).read_text(encoding="utf-8") + "[mitigations]\nmitigate retract h1\n"
    Path("retract.scn").write_text(text, encoding="utf-8")
    line = len(text.splitlines())
    capsys.readouterr()
    for argv in (["verify", "retract.scn"], ["oracle", "retract.scn"],
                 ["classify", "retract.scn", "mini.trace"],
                 ["export", "retract.scn", "cnf", "--out", "retract.cnf"]):
        assert main(argv) == EXIT_INPUT_ERROR, argv
        assert capsys.readouterr().err == (
            f"error: line {line}: expected: mitigate slowdown|stop <hazard>\n"
        ), argv
    assert not Path("retract.cnf").exists()


def test_a_second_mitigation_kind_fails_on_its_line(tmp_path, monkeypatch, capsys):
    # stop and slowdown on one hazard demand two next speeds at once: both paths would answer a
    # vacuous SAFE, so neither reads past the second mitigate line.
    monkeypatch.chdir(tmp_path)
    text = Path(HANDOVER_MINI).read_text(encoding="utf-8")
    text += "[mitigations]\nmitigate stop h1\nmitigate slowdown h1\n"
    Path("both.scn").write_text(text, encoding="utf-8")
    line = len(text.splitlines())
    for command in ("verify", "oracle"):
        assert main([command, "both.scn"]) == EXIT_INPUT_ERROR, command
        assert capsys.readouterr().err == (
            f"error: line {line}: hazard 'h1' is already mitigated by 'stop' on line {line - 1}: "
            "one mitigation per hazard\n"
        ), command


def test_a_negative_bound_fails_as_the_scenario_loads(tmp_path, monkeypatch, capsys):
    # --bound takes any int: every command loads its scenario first, and the
    # Scenario refuses a negative bound before a trace is read or a file written.
    monkeypatch.chdir(tmp_path)
    for argv in (["verify", HANDOVER], ["classify", HANDOVER, "missing.trace"],
                 ["export", HANDOVER, "cnf"], ["oracle", HANDOVER]):
        assert main([*argv, "--bound", "-1"]) == EXIT_INPUT_ERROR, argv
        assert capsys.readouterr() == ("", "error: bound must be >= 0\n"), argv
    assert list(tmp_path.iterdir()) == []


def test_a_bound_option_validates_the_scenario_once(monkeypatch):
    validated = []
    validate = world._validate_scenario
    monkeypatch.setattr(world, "_validate_scenario", lambda s: validated.append(s.bound) or validate(s))
    assert main(["verify", HANDOVER_STOP, "--bound", "9"]) == EXIT_SAFE
    assert validated == [9]


@pytest.mark.parametrize(
    "name, line, first",
    [("speed_kuka", 18, 16), ("done_1", 21, 18), ("haz_h1", 25, 18), ("risk_h1", 25, 18)],
)
def test_an_id_that_repeats_a_symbol_fails_on_the_later_line_for_both_oracles(
    tmp_path, capsys, name, line, first
):
    # handover_mini's robot POI p_g renamed to a symbol the model generates itself.
    clash = tmp_path / "clash.scn"
    clash.write_text(Path(HANDOVER_MINI).read_text(encoding="utf-8").replace("p_g", name))
    for command in ("verify", "oracle"):
        assert main([command, str(clash)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            f"error: line {line}: symbol {name!r} already declared on line {first}\n"
        )


@pytest.mark.parametrize("instant, given, due", [(2, "6", "0"), (6, "4", "5")])
def test_a_forged_risk_column_is_an_input_error(tmp_path, capsys, instant, given, due):
    trace = _mini_trace(tmp_path)
    bound, header, *rows = trace.read_text(encoding="utf-8").splitlines()
    at = header.split().index("risk_h1") - 1  # "# vars" is two fields, a row's instant one
    row = rows[instant].split()
    assert row[at] == due
    row[at] = given
    rows[instant] = " ".join(row)
    trace.write_text("\n".join([bound, header, *rows]) + "\n", encoding="utf-8")
    capsys.readouterr()
    for argv in (["classify", HANDOVER_MINI, str(trace)],
                 ["export", HANDOVER_MINI, "trace-table", "--trace", str(trace),
                  "--out", str(tmp_path / "table.txt")]):
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            f"error: column risk_h1 at t={instant} reads {given}, but the hazard flag "
            f"and the robot's next speed price it {due}\n"
        )


def test_a_flag_without_co_location_is_an_input_error(tmp_path, capsys):
    # haz_h1 at every instant while p_a sits at L4 and p_g at L1, the robot stopped and
    # risk_h1 priced as verify prices it: every column is well formed, but the model forbids it.
    trace = _mini_trace(tmp_path)
    bound, header, *rows = trace.read_text(encoding="utf-8").splitlines()
    at = {name: i - 1 for i, name in enumerate(header.split())}  # a row's instant is field 0
    forged = {"haz_h1": "1", "p_a": "L4", "p_g": "L1", "speed_kuka": "stopped"}
    for t, row in enumerate(rows):
        fields = row.split()
        for name, value in forged.items():
            fields[at[name]] = value
        fields[at["risk_h1"]] = "5" if t == len(rows) - 1 else "0"
        rows[t] = " ".join(fields)
    trace.write_text("\n".join([bound, header, *rows]) + "\n", encoding="utf-8")
    capsys.readouterr()
    for argv in (["classify", HANDOVER_MINI, str(trace)],
                 ["export", HANDOVER_MINI, "trace-table", "--trace", str(trace),
                  "--out", str(tmp_path / "table.txt")]):
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "error: flag rule: haz_h1 is set at t=0, but p_a is at L4 and p_g at L1\n"
        )
    assert not (tmp_path / "table.txt").exists()


def test_reading_a_trace_never_compiles_the_model(tmp_path, monkeypatch, capsys):
    trace = _mini_trace(tmp_path)
    classify, export = ["classify", HANDOVER_MINI, str(trace)], ["export", HANDOVER_MINI]
    runs = {  # name: argv, exit code, suffix of the --out file (None: print the report)
        "text": (classify, EXIT_UNCONFIRMED, None),
        "csv": ([*classify, "--format", "csv"], EXIT_UNCONFIRMED, "csv"),
        "svg": ([*classify, "--format", "svg"], EXIT_UNCONFIRMED, "svg"),
        "table": ([*export, "trace-table", "--trace", str(trace)], EXIT_SAFE, "txt"),
        "timeline": ([*export, "timeline", "--trace", str(trace)], EXIT_SAFE, "svg"),
    }

    def outputs() -> dict[str, tuple[int, str, bytes | None]]:
        seen = {}
        for name, (argv, code, suffix) in runs.items():
            out = tmp_path / f"{name}.{suffix}" if suffix else None
            status = main([*argv, "--out", str(out)] if out else argv)
            assert status == code, name
            seen[name] = (status, capsys.readouterr().out, out.read_bytes() if out else None)
        return seen

    capsys.readouterr()
    compiled = outputs()

    def refuse(scenario):
        raise AssertionError("compile_scenario on the trace-read path")

    monkeypatch.setattr(cli, "compile_scenario", refuse)
    monkeypatch.setattr("coverify.world.compile_scenario", refuse)
    assert outputs() == compiled


class TestSharedParser:
    """Every main call parses with one parser; no call may leave state on it."""

    def test_one_parser_per_process(self, capsys):
        assert build_parser() is build_parser()
        # The one parser's help lists every option of a command, on every call.
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as error:
                main(["classify", "--help"])
            assert error.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        for option in ("--samples", "--seed", "--format", "--out", "--bound"):
            assert option in helps[0], option

    def test_options_of_one_call_do_not_reach_the_next(self):
        parser = build_parser()
        argv = ["classify", HANDOVER, "t.trace", "--seed", "3", "--samples", "7", "--format", "csv"]
        given = vars(parser.parse_args([*argv, "--out", "f.csv"]))
        defaults = vars(parser.parse_args(["classify", HANDOVER, "t.trace"]))
        options = {"seed": 3, "samples": 7, "format": "csv", "out": "f.csv"}
        assert given == {**defaults, **options}
        assert defaults == {
            "command": "classify", "run": given["run"], "scenario": HANDOVER, "trace": "t.trace",
            "bound": None, "out": None, "seed": 0, "samples": 100_000, "format": "text",
        }

    def test_usage_error_between_calls_changes_nothing(self, tmp_path, sampled_case, capsys):
        scenario, trace = sampled_case
        out = tmp_path / "sampled.csv"
        argv = ["classify", scenario, trace, "--format", "csv", "--seed", "3", "--samples", "2000",
                "--out", str(out)]

        def run():
            assert main(argv) == EXIT_UNCONFIRMED
            return out.read_bytes(), capsys.readouterr().out

        first = run()
        with pytest.raises(SystemExit) as error:
            main(["classify", scenario])  # no trace: a usage error
        assert error.value.code == EXIT_INPUT_ERROR
        capsys.readouterr()
        assert run() == first


# Run in a fresh interpreter: the test process has loaded numpy long before.
_IMPORT_PROBE = """
import json, sys
import coverify
from coverify.cli import main

heavy = {"numpy", "xml.sax.saxutils", "urllib.request"}
mini = sys.argv[1]
codes = [
    main(["verify", mini, "--out", "mini.trace"]),
    main(["export", mini, "trace-table", "--trace", "mini.trace"]),
    main(["oracle", mini]),
]
loaded = sorted(heavy & sys.modules.keys())
# Every POSSIBLE row of the mini trace is a same-cell contact: the closed form.
codes.append(main(["classify", mini, "mini.trace", "--samples", "2000"]))
classify_loaded = sorted(heavy & sys.modules.keys())
from coverify.geometry import Box, sample_contact_probability
cube = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
sample_contact_probability(cube, cube, 0.1, 2000, 0)
print(json.dumps({"codes": codes, "loaded": loaded, "classify_loaded": classify_loaded,
                  "numpy": "numpy" in sys.modules}))
"""


def test_verify_export_and_oracle_never_import_numpy_or_urllib(tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, HANDOVER_MINI],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(run.stdout.splitlines()[-1])
    assert probe["codes"] == [EXIT_COUNTEREXAMPLE, EXIT_SAFE, EXIT_COUNTEREXAMPLE, EXIT_UNCONFIRMED]
    assert probe["loaded"] == []
    assert probe["classify_loaded"] == []
    # The Monte Carlo sampler must load numpy: the probe can see it.
    assert probe["numpy"]
