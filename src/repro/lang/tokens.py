"""Token definitions for the nanoTS lexer."""

from __future__ import annotations

from enum import Enum

from repro.errors import SourceSpan
from repro.node import Record

_set_field = object.__setattr__


class TokenKind(Enum):
    IDENT = "identifier"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    PUNCT = "punctuation"
    EOF = "eof"


KEYWORDS = frozenset({
    "function", "return", "var", "let", "const", "if", "else", "while", "for",
    "new", "class", "interface", "extends", "implements", "constructor",
    "this", "true", "false", "null", "undefined", "typeof", "instanceof",
    "type", "enum", "spec", "declare", "immutable", "mutable", "readonly",
    "public", "private", "break", "continue", "in", "of", "as", "invariant",
    "qualifier", "void", "number", "boolean", "string", "any",
})

# `import`, `export` and `from` are *contextual* keywords: they are lexed as
# plain identifiers (so `var from = 1;` keeps parsing, as in TypeScript) and
# only recognised by the parser in module-declaration position.

# Multi-character punctuation, longest first so the lexer matches greedily.
PUNCTUATION = (
    "===", "!==", "<=>", "=>", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "::", "(", ")", "{", "}", "[", "]", "<", ">", ",",
    ";", ":", ".", "?", "=", "+", "-", "*", "/", "%", "&", "|", "!", "@",
)


class Token(Record, frozen=True):
    kind: TokenKind
    text: str
    span: SourceSpan
    value: object = None

    def __init__(self, kind: TokenKind, text: str, span: SourceSpan,
                 value: object = None) -> None:
        _set_field(self, "kind", kind)
        _set_field(self, "text", text)
        _set_field(self, "span", span)
        _set_field(self, "value", value)

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def is_ident(self, text: str | None = None) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return text is None or self.text == text

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})"
