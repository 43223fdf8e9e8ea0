"""Trace files: the per-instant textual witness format.

    # bound <k>
    # vars <name> <name> ...
    <t> <value> <value> ...

Each header comes once, before the first instant row.  One line per
instant; propositions print as 0/1, finite variables print their domain
symbol; the bound and each instant index are ASCII digits.  Reading needs
the scenario's symbol table: a column of 0/1 values may be a proposition or
an integer-valued variable such as ``risk_<h>``.  It reconstructs the trace
exactly and requires a column for every declared symbol.
"""

from __future__ import annotations

import re

from .logic import DIGITS, FiniteVariable, SymbolTable, Trace

__all__ = ["TraceFormatError", "write_trace", "read_trace"]

_NATURAL_RE = re.compile(rf"{DIGITS}\Z")


class TraceFormatError(ValueError):
    pass


def write_trace(tr: Trace) -> str:
    lines = [f"# bound {tr.bound}\n", "# vars " + " ".join(tr.symbol_names) + "\n"]
    for t in range(tr.bound + 1):
        values = ["1" if tr.propositions[n][t] else "0" for n in tr.propositions]
        values += [tr.variables[n][t] for n in tr.variables]
        lines.append(f"{t} " + " ".join(values) + "\n")
    return "".join(lines)


def read_trace(text: str, symbols: SymbolTable) -> Trace:
    bound: int | None = None
    names: list[str] | None = None
    rows: list[list[str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            # An instant row needs both headers, so this also rejects any
            # header after the first row.
            if (fields[:1] == ["bound"] and bound is not None
                    or fields[:1] == ["vars"] and names is not None):
                raise TraceFormatError(f"line {lineno}: repeated '# {fields[0]}' header")
            if fields[:1] == ["bound"]:
                if len(fields) != 2 or not _NATURAL_RE.match(fields[1]):
                    raise TraceFormatError(f"line {lineno}: malformed bound header")
                bound = int(fields[1])
            elif fields[:1] == ["vars"]:
                names = fields[1:]
                if len(set(names)) != len(names):
                    raise TraceFormatError(f"line {lineno}: duplicate symbol in header")
            continue
        fields = line.split()
        if names is None or bound is None:
            raise TraceFormatError(f"line {lineno}: instant row before headers")
        if len(fields) != len(names) + 1:
            raise TraceFormatError(
                f"line {lineno}: expected {len(names) + 1} fields, found {len(fields)}"
            )
        if not _NATURAL_RE.match(fields[0]) or int(fields[0]) != len(rows):
            raise TraceFormatError(f"line {lineno}: instants must be consecutive from 0")
        rows.append(fields[1:])

    if bound is None or names is None:
        raise TraceFormatError("missing '# bound' or '# vars' header")
    if len(rows) != bound + 1:
        raise TraceFormatError(f"bound {bound} but {len(rows)} instant rows")

    props: dict[str, tuple[bool, ...]] = {}
    variables: dict[str, tuple[str, ...]] = {}
    for i, name in enumerate(names):
        column = [row[i] for row in rows]
        symbol = symbols.lookup(name)
        if symbol is None:
            raise TraceFormatError(f"trace symbol {name!r} is not declared")
        if isinstance(symbol, FiniteVariable):
            for value in column:
                if value not in symbol.domain:
                    raise TraceFormatError(f"value {value!r} outside the domain of {name!r}")
            variables[name] = tuple(column)
        else:
            for value in column:
                if value not in ("0", "1"):
                    raise TraceFormatError(f"proposition {name!r} has non-boolean value {value!r}")
            props[name] = tuple(value == "1" for value in column)
    for symbol in (*symbols.propositions, *symbols.variables):
        if symbol.name not in props and symbol.name not in variables:
            raise TraceFormatError(f"trace has no column for declared symbol {symbol.name!r}")
    return Trace(bound, props, variables)
