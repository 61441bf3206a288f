"""Tokenizer for the Job Description Language (JDL).

The JDL used by CrossGrid (paper Figure 2) is the EU DataGrid classad
dialect: ``Attribute = value;`` entries where values are strings, numbers,
booleans, brace-delimited lists, or classad expressions (for
``Requirements`` and ``Rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class JdlSyntaxError(ValueError):
    """Raised on malformed JDL input."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, STRING, NUMBER, OP, PUNCT, EOF
    value: str
    line: int
    column: int


_PUNCT = set("{}();,[]")
# Multi-char operators first so '>=' wins over '>'.
_OPERATORS = ["&&", "||", "==", "!=", ">=", "<=", ">", "<", "!", "+", "-",
              "*", "/", "=", "?", ":", "."]


def tokenize(text: str) -> List[Token]:
    """Turn JDL source into a token list ending with an EOF token."""
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def error(msg: str) -> JdlSyntaxError:
        return JdlSyntaxError(msg, line, col)

    while i < n:
        ch = text[i]
        # Whitespace / newlines.
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        # Comments: // to end of line, /* ... */, and # to end of line.
        if text.startswith("//", i) or ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            for c in text[i:end + 2]:
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = end + 2
            continue
        # Strings.
        if ch == '"':
            j = i + 1
            buf: List[str] = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                elif text[j] == "\n":
                    raise error("unterminated string literal")
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise error("unterminated string literal")
            tokens.append(Token("STRING", "".join(buf), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        # Numbers (int or float).
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit is a member-access op.
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
            continue
        # Identifiers / keywords.
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        # Punctuation.
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        # Operators.
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("OP", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise error(f"unexpected character {ch!r}")

    tokens.append(Token("EOF", "", line, col))
    return tokens
