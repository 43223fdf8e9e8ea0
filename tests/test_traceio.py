"""Trace file round trips and validation."""

import pytest

from coverify.logic import SymbolTable, Trace
from coverify.traceio import TraceFormatError, read_trace, write_trace
from coverify.world import compile_scenario, verify


@pytest.fixture
def symbols():
    table = SymbolTable()
    table.add_proposition("start")
    table.add_proposition("stop")
    table.add_variable("p_x", ("L1", "L2"))
    return table


@pytest.fixture
def trace():
    return Trace(
        2,
        {"start": (True, False, False), "stop": (False, False, True)},
        {"p_x": ("L1", "L1", "L2")},
    )


def test_write_format(trace):
    assert write_trace(trace) == (
        "# bound 2\n"
        "# vars start stop p_x\n"
        "0 1 0 L1\n"
        "1 0 0 L1\n"
        "2 0 1 L2\n"
    )


def test_round_trip_with_symbols(trace, symbols):
    assert read_trace(write_trace(trace), symbols) == trace


def test_round_trip_of_a_real_counterexample(handover_mini):
    result = verify(handover_mini)
    symbols = compile_scenario(handover_mini).symbols
    assert read_trace(write_trace(result.trace), symbols) == result.trace


def test_numeric_domain_needs_symbols():
    # an all-0/1 numeric variable column looks like a proposition; the table
    # makes the kind exact
    table = SymbolTable()
    table.add_variable("risk", ("0", "1", "2"))
    tr = Trace(1, {}, {"risk": ("0", "1")})
    assert read_trace(write_trace(tr), table) == tr


class TestErrors:
    def test_missing_headers(self, symbols):
        with pytest.raises(TraceFormatError, match="header"):
            read_trace("0 1\n", symbols)

    def test_bound_row_mismatch(self, symbols):
        with pytest.raises(TraceFormatError, match="instant rows"):
            read_trace("# bound 2\n# vars start\n0 1\n1 0\n", symbols)

    @pytest.mark.parametrize(
        "text",
        [
            "# bound 1\n# bound 1\n# vars start\n0 1\n1 0\n",
            "# bound 1\n# vars start\n# vars start\n0 1\n1 0\n",
            "# bound 1\n# vars start\n0 1\n# vars start\n1 0\n",
            "# bound 1\n# vars start\n0 1\n1 0\n# bound 1\n",
        ],
        ids=["bound-twice", "vars-twice", "vars-after-row", "bound-after-rows"],
    )
    def test_repeated_header(self, symbols, text):
        with pytest.raises(TraceFormatError, match="repeated '# (bound|vars)' header"):
            read_trace(text, symbols)

    def test_non_consecutive_instants(self, symbols):
        with pytest.raises(TraceFormatError, match="consecutive"):
            read_trace("# bound 1\n# vars start\n0 1\n2 0\n", symbols)

    def test_field_count(self, symbols):
        with pytest.raises(TraceFormatError, match="fields"):
            read_trace("# bound 0\n# vars start stop\n0 1\n", symbols)

    def test_undeclared_symbol(self, symbols):
        with pytest.raises(TraceFormatError, match="not declared"):
            read_trace("# bound 0\n# vars ghost\n0 1\n", symbols)

    def test_value_outside_domain(self, symbols):
        with pytest.raises(TraceFormatError, match="outside the domain"):
            read_trace("# bound 0\n# vars p_x\n0 L9\n", symbols)

    def test_missing_declared_column(self, symbols):
        with pytest.raises(TraceFormatError, match="no column for declared symbol 'p_x'"):
            read_trace("# bound 0\n# vars start stop\n0 1 0\n", symbols)

    def test_bad_proposition_value(self, symbols):
        with pytest.raises(TraceFormatError, match="non-boolean"):
            read_trace("# bound 0\n# vars start\n0 yes\n", symbols)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# bound ²\n# vars start\n0 1\n1 0\n", "line 1: malformed bound header"),
            ("# bound ٦\n# vars start\n0 1\n", "line 1: malformed bound header"),
            ("# vars start\n# bound 1\n٠ 1\n1 0\n", "line 3: instants must be consecutive from 0"),
            ("# bound 1\n# vars start\n0 1\n١ 0\n", "line 4: instants must be consecutive from 0"),
        ],
        ids=["superscript-bound", "arabic-indic-bound", "arabic-indic-zero", "arabic-indic-one"],
    )
    def test_numerals_are_ascii_digits(self, symbols, text, message):
        # str.isdigit accepts each of these, and int() reads all but the superscript.
        with pytest.raises(TraceFormatError) as error:
            read_trace(text, symbols)
        assert str(error.value) == message

    def test_leading_zeros_still_read(self, symbols):
        tr = read_trace("# bound 01\n# vars start stop p_x\n00 1 0 L1\n01 0 1 L2\n", symbols)
        assert tr == Trace(1, {"start": (True, False), "stop": (False, True)}, {"p_x": ("L1", "L2")})
