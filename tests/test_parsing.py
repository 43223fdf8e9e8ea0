"""Formula grammar: structure, precedence, and error positions."""

import random
import string

import pytest

from coverify.logic import (
    Alw,
    And,
    Atom,
    Dist,
    Eq,
    Implies,
    Not,
    Or,
    Som,
    SymbolTable,
    conjoin,
    disjoin,
)
from coverify.parsing import MAX_DEPTH, ParseError, _tokenize, parse_formula

import frozen_tokenize
from helpers import formula_family, random_formula


@pytest.fixture
def symbols():
    table = SymbolTable()
    table.add_proposition("start")
    table.add_proposition("stop")
    table.add_variable("p_g", ("L1", "L2", "L3"))
    table.add_variable("p_a", ("L1", "L2", "L3"))
    table.add_variable("risk", ("0", "1", "2"))
    return table


def test_movement_formula_ast(symbols):
    f = parse_formula("Alw(start -> Dist(stop,3) & !(start & stop))", symbols)
    start, stop = Atom("start"), Atom("stop")
    assert f == Alw(Implies(start, And(Dist(stop, 3), Not(And(start, stop)))))


def test_single_atom(symbols):
    assert parse_formula("start", symbols) == Atom("start")


def test_som_of_equality(symbols):
    assert parse_formula("Som(p_g = L3)", symbols) == Som(Eq("p_g", "L3"))


def test_variable_equality(symbols):
    # Only a constant may follow '=': a variable's name is no domain value.
    with pytest.raises(ParseError, match="'p_a' is not a domain value of 'p_g'") as error:
        parse_formula("start &\n  p_g = p_a", symbols)
    assert (error.value.line, error.value.column) == (2, 9)


def test_integer_domain_value(symbols):
    assert parse_formula("risk = 1", symbols) == Eq("risk", "1")
    with pytest.raises(ParseError, match="'3' is not a domain value of 'risk'") as error:
        parse_formula("start &\n  risk = 3", symbols)
    assert (error.value.line, error.value.column) == (2, 10)
    with pytest.raises(ParseError, match="'-1' is not a domain value of 'risk'"):
        parse_formula("risk = -1", symbols)


def test_negative_dist_offset(symbols):
    assert parse_formula("Dist(start, -2)", symbols) == Dist(Atom("start"), -2)


def test_precedence_not_binds_tightest(symbols):
    f = parse_formula("!start & stop", symbols)
    assert f == And(Not(Atom("start")), Atom("stop"))


def test_precedence_and_over_or(symbols):
    f = parse_formula("start | stop & start", symbols)
    assert f == Or(Atom("start"), And(Atom("stop"), Atom("start")))


def test_precedence_or_over_implies(symbols):
    f = parse_formula("start | stop -> stop", symbols)
    assert f == Implies(Or(Atom("start"), Atom("stop")), Atom("stop"))


def test_implies_right_associative(symbols):
    f = parse_formula("start -> stop -> start", symbols)
    assert f == Implies(Atom("start"), Implies(Atom("stop"), Atom("start")))


def test_parentheses_override(symbols):
    f = parse_formula("(start -> stop) -> start", symbols)
    assert f == Implies(Implies(Atom("start"), Atom("stop")), Atom("start"))


def test_whitespace_and_newlines(symbols):
    f = parse_formula("Alw(\n  start ->\n  stop\n)", symbols)
    assert f == Alw(Implies(Atom("start"), Atom("stop")))


class TestErrors:
    def test_undeclared_identifier(self, symbols):
        with pytest.raises(ParseError, match="undeclared identifier 'ghost'"):
            parse_formula("start & ghost", symbols)

    def test_error_carries_position(self, symbols):
        with pytest.raises(ParseError) as err:
            parse_formula("start &\n ghost", symbols)
        assert err.value.line == 2
        assert err.value.column == 2

    def test_dist_offset_must_be_literal(self, symbols):
        with pytest.raises(ParseError, match="integer literal"):
            parse_formula("Dist(start, stop)", symbols)

    def test_unbalanced_parenthesis(self, symbols):
        with pytest.raises(ParseError, match="expected"):
            parse_formula("Alw(start", symbols)

    def test_trailing_garbage(self, symbols):
        with pytest.raises(ParseError, match="trailing"):
            parse_formula("start stop", symbols)

    def test_equality_on_proposition(self, symbols):
        with pytest.raises(ParseError, match="not a finite variable"):
            parse_formula("start = L1", symbols)

    def test_value_outside_domain(self, symbols):
        with pytest.raises(ParseError, match="not a domain value"):
            parse_formula("p_g = L9", symbols)

    def test_le_is_not_an_operator(self, symbols):
        with pytest.raises(ParseError, match="unexpected character '<'") as error:
            parse_formula("risk <= 1", symbols)
        assert (error.value.line, error.value.column) == (1, 6)

    def test_bare_variable_is_rejected(self, symbols):
        with pytest.raises(ParseError, match="needs '='"):
            parse_formula("p_g", symbols)

    def test_stray_character(self, symbols):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_formula("start % stop", symbols)

    def test_empty_input(self, symbols):
        with pytest.raises(ParseError):
            parse_formula("", symbols)


def test_parse_evaluate_round_trip(symbols):
    # Parsed operators mean what the evaluator thinks they mean.
    from coverify.logic import Trace, evaluate

    tr = Trace(
        3,
        {"start": (True, False, False, False), "stop": (False, False, False, True)},
        {"p_g": ("L1", "L2", "L3", "L3"), "p_a": ("L3", "L2", "L1", "L3"), "risk": ("0", "1", "2", "0")},
    )
    cases = [
        ("start -> Dist(stop, 3)", 0, True),
        ("Som(p_g = L2 & p_a = L2)", 2, True),
        ("Som(p_g = L1 & p_a = L1)", 2, False),
    ]
    for text, t, expected in cases:
        assert evaluate(parse_formula(text, symbols), tr, t) is expected


def _depth(f) -> int:
    children = [getattr(f, name) for name in ("left", "right", "operand") if hasattr(f, name)]
    return 1 + max((_depth(c) for c in children), default=0)


class TestLongChains:
    """A chain of one operator parses to the balanced tree of conjoin/disjoin."""

    def test_chain_parses_to_the_balanced_fold(self, symbols):
        names = ["start", "stop", "start", "stop", "start"]
        start, stop = Atom("start"), Atom("stop")
        assert parse_formula(" & ".join(names), symbols) == conjoin(Atom(n) for n in names)
        assert parse_formula(" | ".join(names), symbols) == disjoin(Atom(n) for n in names)
        # Up to three operands the balanced and the left-nested tree are the same.
        assert parse_formula("start & stop & start", symbols) == And(And(start, stop), start)
        assert parse_formula("start | stop & start | stop", symbols) == Or(
            Or(start, And(stop, start)), stop
        )

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_two_thousand_operands_evaluate_and_check(self, symbols, op):
        from coverify.encode import check
        from coverify.logic import Trace, evaluate, free_symbols

        f = parse_formula(f" {op} ".join(["start"] * 2000), symbols)
        assert _depth(f) == 12  # eleven levels of connectives over the atoms, not 1,999
        tr = Trace(2, {"start": (True, False, True)}, {})
        assert [evaluate(f, tr, t) for t in range(3)] == [True, False, True]
        assert free_symbols(f) == {"start"}
        witness = check(Not(f) if op == "&" else f, symbols, 2)
        assert witness is not None
        assert witness.propositions["start"][0] is (op == "|")


class TestNestingLimit:
    """Nesting past MAX_DEPTH is a ParseError at the token that opens the level too many."""

    @pytest.mark.parametrize(
        "text, column",
        [
            ("!" * 2000 + "start", MAX_DEPTH + 1),
            (" -> ".join(["start"] * 2001), len("start -> ") * MAX_DEPTH + len("start ") + 1),
            ("(" * 400 + "start" + ")" * 400, MAX_DEPTH + 1),
        ],
        ids=["not", "implies", "parentheses"],
    )
    def test_deep_nesting_is_a_parse_error(self, symbols, text, column):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}") as error:
            parse_formula(text, symbols)
        assert (error.value.line, error.value.column) == (1, column)

    def test_temporal_operators_and_levels_on_later_lines_count(self, symbols):
        text = "Alw(\n" * (MAX_DEPTH + 1) + "start" + ")" * (MAX_DEPTH + 1)
        with pytest.raises(ParseError) as error:
            parse_formula(text, symbols)
        assert (error.value.line, error.value.column) == (MAX_DEPTH + 1, 1)

    def test_the_deepest_formula_parses_evaluates_and_checks(self, symbols):
        from coverify.encode import check
        from coverify.logic import Trace, evaluate, free_symbols

        # Every kind of level, MAX_DEPTH in all; each closed level frees its depth again.
        quarter = MAX_DEPTH // 4
        inner = "(" * quarter + "!" * quarter + "start" + ")" * quarter
        text = "Som(" * quarter + "start -> " * quarter + inner + ")" * quarter
        f = parse_formula(f"{text} & {text}", symbols)
        tr = Trace(2, {"start": (True, False, True)}, {})
        assert evaluate(f, tr, 0) is True
        assert free_symbols(f) == {"start"}
        witness = check(f, symbols, 2)
        assert witness is not None and evaluate(f, witness, 0) is True


def _scan(tokenize, text):
    """The tokens of text, or the ParseError's message, line and column."""
    try:
        return tokenize(text)
    except ParseError as error:
        return str(error), error.line, error.column


# Whole tokens, blanks, and the characters that start no token.
_PUNCTUATION = ("->", "!", "&", "|", "(", ")", ",", "=")
_BLANKS = (" ", "  ", "\t", "\r", "\n", "\r\n")
_STRAY = ("<", "-", "#", ".")
_WORD_CHARS = string.ascii_letters + string.digits + "_"


def _random_ascii_text(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randrange(40)):
        roll = rng.random()
        if roll < 0.35:  # a name, a digit run, or both run together
            pieces.append("".join(rng.choice(_WORD_CHARS) for _ in range(rng.randint(1, 4))))
        elif roll < 0.45:
            pieces.append("-" + "".join(rng.choice(string.digits) for _ in range(rng.randint(1, 3))))
        elif roll < 0.7:
            pieces.append(rng.choice(_PUNCTUATION))
        elif roll < 0.97:
            pieces.append(rng.choice(_BLANKS))
        else:
            pieces.append(rng.choice(_STRAY))
    return "".join(pieces)


class TestScannerAgainstFrozen:
    """The regular-expression scanner against the per-character one it replaced:
    on ASCII text both give the same tokens, or the same error at the same place."""

    def test_seeded_random_ascii_texts(self):
        rng = random.Random(20240)
        outcomes = {"tokens": 0, "error": 0}
        for _ in range(3000):
            text = _random_ascii_text(rng)
            current = _scan(_tokenize, text)
            assert current == _scan(frozen_tokenize._tokenize, text), repr(text)
            outcomes["error" if isinstance(current, tuple) else "tokens"] += 1
        assert min(outcomes.values()) > 500, outcomes  # both paths well exercised

    def test_formula_family_text(self):
        family = formula_family()
        rng = random.Random(7)
        family += [random_formula(rng, 5) for _ in range(200)]
        texts = [str(f) for f in family]
        texts.append("\n".join(texts))  # positions on later lines too
        for text in texts:
            tokens = _tokenize(text)
            assert tokens == frozen_tokenize._tokenize(text), text


class TestNonAsciiCharacters:
    """Names and integers are ASCII: any other letter or digit is an unexpected
    character at its own position, before any symbol is looked up."""

    @pytest.mark.parametrize(
        "text, character, line, column",
        [
            ("Dist(start, \u00b2)", "\u00b2", 1, 13),  # superscript two
            ("Dist(start, \u0661)", "\u0661", 1, 13),  # Arabic-Indic one
            ("Dist(start,\n -\u00b2)", "-", 2, 2),  # a minus starts no token of its own
            ("start &\n  \u00e9", "\u00e9", 2, 3),
            ("risk = \u0662", "\u0662", 1, 8),
            ("p_g\u00e9 = L1", "\u00e9", 1, 4),
        ],
        ids=["superscript", "arabic-indic", "minus-superscript", "letter", "value", "name-tail"],
    )
    def test_rejected_at_its_position(self, symbols, text, character, line, column):
        with pytest.raises(ParseError) as error:
            parse_formula(text, symbols)
        assert str(error.value) == (
            f"unexpected character {character!r} (line {line}, column {column})"
        )