"""Parser for the textual rule and database language.

The concrete syntax follows the paper as closely as ASCII allows::

    grad(S) :- take(S, his101), take(S, eng201).
    within1(S, D) :- grad(S, D) [add: take(S, C)].
    even :- ~select(X).
    path(X) :- select(Y), edge(X, Y), path(Y) [add: pnode(Y)].

* Identifiers starting with a lowercase letter are predicate or
  constant symbols; identifiers starting with an uppercase letter or
  ``_`` are variables.  Integers are constants.  Single-quoted strings
  are constants with arbitrary content.
* ``~A`` (or ``not A``) is negation-by-failure.
* ``A [add: B1, ..., Bm]`` is a hypothetical premise; an optional
  ``[del: C1, ..., Cj]`` group adds hypothetical deletions (the [4]
  extension; evaluated by the top-down and model engines, not PROVE).
* Facts are rules with no body: ``take(tony, cs250).``
* Comments run from ``%`` or ``#`` to the end of the line.

Entry points: :func:`parse_program` (rules), :func:`parse_database`
(ground facts only), :func:`parse_rule`, :func:`parse_premise`,
:func:`parse_atom`.  The pretty-printer in :mod:`repro.core.pretty`
emits exactly this syntax, so parse/print round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from typing import Optional, Union

from .ast import Hypothetical, Negated, Positive, Premise, Rule, Rulebase
from .database import Database
from .errors import ParseError
from .spans import Span
from .terms import Atom, Constant, Term, Variable

__all__ = [
    "parse_program",
    "parse_database",
    "parse_rule",
    "parse_premise",
    "as_premise",
    "parse_atom",
]

_PUNCTUATION = {"(", ")", "[", "]", ",", ".", "~"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "ident" | "var" | "int" | "string" | "punct" | "arrow" | "eof"
    text: str
    line: int
    column: int
    width: int = 1  # source characters consumed (quotes included)


def _tokenize(source: str) -> Iterator[_Token]:
    line = 1
    column = 1
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char.isspace():
            index += 1
            column += 1
            continue
        if char in "%#":
            while index < length and source[index] != "\n":
                index += 1
            continue
        start_column = column
        if source.startswith(":-", index):
            yield _Token("arrow", ":-", line, start_column, 2)
            index += 2
            column += 2
            continue
        if char == ":":
            yield _Token("punct", ":", line, start_column)
            index += 1
            column += 1
            continue
        if char in _PUNCTUATION:
            yield _Token("punct", char, line, start_column)
            index += 1
            column += 1
            continue
        if char == "'":
            end = source.find("'", index + 1)
            if end < 0:
                raise ParseError("unterminated quoted constant", line, start_column)
            text = source[index + 1 : end]
            consumed = end - index + 1
            yield _Token("string", text, line, start_column, consumed)
            index += consumed
            column += consumed
            continue
        if char.isdigit() or (char == "-" and index + 1 < length and source[index + 1].isdigit()):
            end = index + 1
            while end < length and source[end].isdigit():
                end += 1
            text = source[index:end]
            yield _Token("int", text, line, start_column, end - index)
            column += end - index
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (source[end].isalnum() or source[end] == "_"):
                end += 1
            text = source[index:end]
            kind = "var" if text[0].isupper() or text[0] == "_" else "ident"
            yield _Token(kind, text, line, start_column, end - index)
            column += end - index
            index = end
            continue
        raise ParseError(f"unexpected character {char!r}", line, start_column)
    yield _Token("eof", "", line, column, 0)


class _Parser:
    """Recursive-descent parser over the token stream.

    ``filename`` (when given) is recorded in the spans attached to the
    rules, premises, and atoms produced, so diagnostics can point at
    ``file:line:col``.
    """

    def __init__(self, source: str, filename: Optional[str] = None):
        self._tokens = list(_tokenize(source))
        self._position = 0
        self._filename = filename
        self._last = self._tokens[0]

    # -- token plumbing -------------------------------------------------

    @property
    def _current(self) -> _Token:
        return self._tokens[self._position]

    def _advance(self) -> _Token:
        token = self._current
        if token.kind != "eof":
            self._position += 1
        self._last = token
        return token

    def _span_from(self, start: _Token) -> Span:
        """The span from ``start`` through the last consumed token."""
        end = self._last if self._last.kind != "eof" else start
        return Span(
            start.line,
            start.column,
            end.line,
            end.column + max(end.width, 1),
            self._filename,
        )

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        token = self._current
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text or token.kind!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _at_punct(self, text: str) -> bool:
        return self._current.kind == "punct" and self._current.text == text

    # -- grammar --------------------------------------------------------

    def parse_term(self) -> Term:
        token = self._current
        if token.kind == "var":
            self._advance()
            return Variable(token.text)
        if token.kind == "ident":
            self._advance()
            return Constant(token.text)
        if token.kind == "string":
            self._advance()
            return Constant(token.text)
        if token.kind == "int":
            self._advance()
            return Constant(int(token.text))
        raise ParseError(
            f"expected a term, found {token.text or token.kind!r}",
            token.line,
            token.column,
        )

    def parse_atom(self) -> Atom:
        token = self._current
        if token.kind not in ("ident", "string"):
            raise ParseError(
                f"expected a predicate symbol, found {token.text or token.kind!r}",
                token.line,
                token.column,
            )
        self._advance()
        predicate = token.text
        args: list[Term] = []
        if self._at_punct("("):
            self._advance()
            if self._at_punct(")"):
                raise ParseError("empty argument list", token.line, token.column)
            args.append(self.parse_term())
            while self._at_punct(","):
                self._advance()
                args.append(self.parse_term())
            self._expect("punct", ")")
        return Atom(predicate, tuple(args), self._span_from(token))

    def parse_premise(self) -> Premise:
        token = self._current
        if self._at_punct("~") or (token.kind == "ident" and token.text == "not"
                                   and self._peek_is_atom_start()):
            self._advance()
            inner = self.parse_atom()
            if self._at_punct("["):
                raise ParseError(
                    "negated hypothetical premises are not allowed "
                    "(introduce an auxiliary predicate; see Section 3.1)",
                    token.line,
                    token.column,
                )
            return Negated(inner, span=self._span_from(token))
        head = self.parse_atom()
        additions: list[Atom] = []
        deletions: list[Atom] = []
        seen_groups: set[str] = set()
        while self._at_punct("["):
            opener = self._advance()
            keyword = self._current
            if keyword.kind != "ident" or keyword.text not in ("add", "del"):
                raise ParseError(
                    "expected 'add' or 'del' after '['",
                    keyword.line,
                    keyword.column,
                )
            if keyword.text in seen_groups:
                raise ParseError(
                    f"duplicate [{keyword.text}: ...] group",
                    keyword.line,
                    keyword.column,
                )
            seen_groups.add(keyword.text)
            self._advance()
            self._expect("punct", ":")
            target = additions if keyword.text == "add" else deletions
            target.append(self.parse_atom())
            while self._at_punct(","):
                self._advance()
                target.append(self.parse_atom())
            self._expect("punct", "]")
        if additions or deletions:
            return Hypothetical(
                head,
                tuple(additions),
                tuple(deletions),
                span=self._span_from(token),
            )
        return Positive(head, span=head.span)

    def _peek_is_atom_start(self) -> bool:
        """After a ``not`` token: does an atom follow?

        Distinguishes ``not p(X)`` (negation) from an atom whose
        predicate happens to be named ``not`` followed by ``:-``/``.``.
        """
        nxt = self._tokens[self._position + 1]
        return nxt.kind in ("ident", "string")

    def parse_rule(self) -> Rule:
        start = self._current
        head = self.parse_atom()
        body: list[Premise] = []
        if self._current.kind == "arrow":
            self._advance()
            body.append(self.parse_premise())
            while self._at_punct(","):
                self._advance()
                body.append(self.parse_premise())
        self._expect("punct", ".")
        return Rule(head, tuple(body), span=self._span_from(start))

    def parse_program(self) -> Rulebase:
        rules: list[Rule] = []
        while self._current.kind != "eof":
            rules.append(self.parse_rule())
        return Rulebase(rules)

    def expect_eof(self) -> None:
        token = self._current
        if token.kind != "eof":
            raise ParseError(
                f"trailing input {token.text!r}", token.line, token.column
            )


def parse_program(source: str, filename: Optional[str] = None) -> Rulebase:
    """Parse a whole program (a sequence of rules and facts).

    ``filename`` (optional) is recorded in the spans of the resulting
    rules, so diagnostics can point at ``file:line:col``.

    >>> rb = parse_program("grad(S) :- take(S, his101), take(S, eng201).")
    >>> len(rb)
    1
    """
    parser = _Parser(source, filename)
    program = parser.parse_program()
    parser.expect_eof()
    return program


def parse_database(source: str, filename: Optional[str] = None) -> Database:
    """Parse a database: ground facts only, one per ``.``-terminated atom.

    Raises :class:`~repro.core.errors.ParseError` on rules and
    :class:`~repro.core.errors.ValidationError` on non-ground facts.
    """
    program = parse_program(source, filename)
    facts = []
    for item in program:
        if not item.is_fact:
            raise ParseError(f"databases contain facts only, found rule {item}")
        facts.append(item.head)
    return Database(facts)


def parse_rule(source: str, filename: Optional[str] = None) -> Rule:
    """Parse exactly one rule (or fact)."""
    parser = _Parser(source, filename)
    result = parser.parse_rule()
    parser.expect_eof()
    return result


def parse_premise(source: str) -> Premise:
    """Parse a premise / query expression, e.g. ``grad(tony)[add: take(tony, cs452)]``.

    A trailing ``.`` is permitted.
    """
    parser = _Parser(source)
    result = parser.parse_premise()
    if parser._at_punct("."):
        parser._advance()
    parser.expect_eof()
    return result


def as_premise(query: Union[str, Atom, Premise]) -> Premise:
    """A query in any form the engines accept, as a premise: text is
    parsed by :func:`parse_premise`, an atom becomes a positive
    premise, and a premise is returned as is."""
    if isinstance(query, str):
        return parse_premise(query)
    if isinstance(query, Atom):
        return Positive(query)
    return query


def parse_atom(source: str) -> Atom:
    """Parse a single atom, e.g. ``take(tony, cs250)``."""
    parser = _Parser(source)
    result = parser.parse_atom()
    if parser._at_punct("."):
        parser._advance()
    parser.expect_eof()
    return result
