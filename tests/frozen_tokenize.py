"""The formula scanner that ``coverify.parsing._tokenize`` replaced, kept verbatim.

It walked the text one character at a time and took Unicode letters and
digits (``str.isalpha``, ``str.isdigit``) for names and integers.  The
regular-expression scanner takes the ASCII ones that ``coverify.logic``
defines; ``test_parsing.py`` checks that both give the same tokens, or the
same error at the same place, on ASCII text.
Only this docstring, ``__all__`` and the imports differ from the original code.
"""

from __future__ import annotations

from coverify.parsing import ParseError, _Token

__all__ = ["_tokenize"]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col

        def emit(kind: str, length: int) -> None:
            nonlocal i, col
            tokens.append(_Token(kind, text[i : i + length], line, start_col))
            i += length
            col += length

        if text.startswith("->", i):
            emit("ARROW", 2)
        elif ch in "!&|(),=":
            emit({"!": "NOT", "&": "AND", "|": "OR", "(": "LPAREN", ")": "RPAREN",
                  ",": "COMMA", "=": "EQ"}[ch], 1)
        elif ch == "-" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            emit("INT", j - i)
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            emit("INT", j - i)
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            emit("IDENT", j - i)
        else:
            raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens
