"""The tuple-row evaluator that ``coverify.logic.evaluate`` replaced, kept verbatim.

Each node's truth row is a tuple of bools, one per instant. The current
evaluator keeps each row as one int bitset; ``test_logic.py`` checks that the
two agree at every instant and raise the same errors. Only this docstring,
``__all__`` and the import from ``coverify.logic`` differ from the original code,
and the branch for the variable-equality atom ``EqVar``, which the logic no
longer has, is gone.
"""

from __future__ import annotations

from coverify.logic import (
    Alw,
    And,
    Atom,
    Dist,
    Eq,
    Formula,
    Implies,
    Not,
    Or,
    Som,
    Trace,
)

__all__ = ["evaluate"]


def evaluate(f: Formula, tr: Trace, t: int) -> bool:
    """Truth of f on tr at instant t.

    Dist(f, d) at t is true iff 0 <= t+d <= bound and f holds at t+d;
    Alw/Som quantify over the whole window 0..bound independent of t.
    """
    if not 0 <= t <= tr.bound:
        raise ValueError(f"instant {t} outside trace window [0, {tr.bound}]")
    return _truth_row(f, tr, {})[t]


def _truth_row(f: Formula, tr: Trace, memo: dict[int, tuple[bool, ...]]) -> tuple[bool, ...]:
    """Truth value of f at every instant, computed bottom-up with sharing."""
    key = id(f)
    cached = memo.get(key)
    if cached is not None:
        return cached

    n = tr.bound + 1
    if isinstance(f, Atom):
        try:
            row = tr.propositions[f.name]
        except KeyError:
            raise ValueError(f"proposition {f.name!r} missing from trace") from None
    elif isinstance(f, Eq):
        row = tuple(v == f.value for v in _var_row(tr, f.var))
    elif isinstance(f, Not):
        row = tuple(not v for v in _truth_row(f.operand, tr, memo))
    elif isinstance(f, And):
        row = tuple(a and b for a, b in zip(_truth_row(f.left, tr, memo), _truth_row(f.right, tr, memo)))
    elif isinstance(f, Or):
        row = tuple(a or b for a, b in zip(_truth_row(f.left, tr, memo), _truth_row(f.right, tr, memo)))
    elif isinstance(f, Implies):
        row = tuple(
            (not a) or b
            for a, b in zip(_truth_row(f.left, tr, memo), _truth_row(f.right, tr, memo))
        )
    elif isinstance(f, Alw):
        row = (all(_truth_row(f.operand, tr, memo)),) * n
    elif isinstance(f, Som):
        row = (any(_truth_row(f.operand, tr, memo)),) * n
    elif isinstance(f, Dist):
        sub = _truth_row(f.operand, tr, memo)
        row = tuple(sub[t + f.offset] if 0 <= t + f.offset <= tr.bound else False for t in range(n))
    else:
        raise TypeError(f"not a formula: {f!r}")

    memo[key] = row
    return row


def _var_row(tr: Trace, name: str) -> tuple[str, ...]:
    try:
        return tr.variables[name]
    except KeyError:
        raise ValueError(f"variable {name!r} missing from trace") from None
