"""Lexer and recursive-descent parser for the line-oriented program syntax.

Grammar (normative, also in the README):

    program   := "program" IDENT NEWLINE subgoal+
    subgoal   := "subgoal" STRING NEWLINE stmt*
    stmt      := call NEWLINE | "parallel" "{" stmt* "}" "{" stmt* "}" NEWLINE
    call      := IDENT "(" [arg ("," arg)*] ")"
    arg       := IDENT "=" value | value
    value     := NUMBER | IDENT | STRING | "fp" "(" IDENT "," INT ")"
               | "pose" "(" NUMBER{7, comma-sep} ")"

``#`` starts a line comment. Parallel branches may not nest further
parallel blocks, and every call must come from the closed API set. A
subgoal or a branch may be empty. Each statement gets its id as it is made:
densely from 1 in source order, a parallel block's before its branches'.

Each argument is bound to its parameter (by position, or by keyword) and
checked against its kind in ``_KINDS`` as it is read, so a call with several
faults reports the first in source order. Only a ``string`` argument takes a
quoted string. A number literal must be finite as a float and short enough for
``int()``, else it is a ``bad_arg`` at its token; so every accepted program
prints back to itself, ``parse(to_text(p)) == p``.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple

from ..errors import BadArgError, DslSyntaxError, UnknownApiError
from ..scene import ARM_TAGS
from .ast import (
    API_SIGNATURES,
    ARM,
    BOOL,
    INT_OR_AUTO,
    INT_OR_NONE,
    NUM,
    STRING,
    TARGET,
    Args,
    CallStmt,
    FpRef,
    ParallelStmt,
    PoseLit,
    Program,
    SubgoalBlock,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<SKIP>[ \t\r]+)
  | (?P<NUMBER>-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:\\.|[^"\\\n])*")
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<LBRACE>\{)
  | (?P<RBRACE>\})
  | (?P<COMMA>,)
  | (?P<EQUALS>=)
  | (?P<COMMENT>\#.*)
  | (?P<MISMATCH>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def lex(text: str) -> list[Token]:
    """Tokenize; emits NEWLINE tokens (collapsed blank/comment lines). A
    ``#`` outside a string starts a comment that runs to the end of the line."""
    tokens: list[Token] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        emitted = False
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "SKIP":
                continue
            if kind == "COMMENT":
                break
            if kind == "MISMATCH":
                raise DslSyntaxError(f"unexpected character {m.group()!r}", lineno, m.start() + 1)
            tokens.append(Token(kind, m.group(), lineno, m.start() + 1))
            emitted = True
        if emitted:
            tokens.append(Token("NEWLINE", "", lineno, len(line) + 1))
    tokens.append(Token("EOF", "", text.count("\n") + 1, 1))
    return tokens


def count_tokens(text: str) -> int:
    """Lexer token count, comments and layout (NEWLINE/EOF) excluded."""
    return sum(1 for t in lex(text) if t.kind not in ("NEWLINE", "EOF"))


def unescape_string(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.ids = itertools.count(1)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DslSyntaxError(
                f"got {tok.kind} {tok.text!r}", tok.line, tok.column,
                expected=(what or kind,),
            )
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise DslSyntaxError(
                f"got {tok.kind} {tok.text!r}", tok.line, tok.column, expected=(word,)
            )
        return self.advance()

    def skip_newlines(self):
        while self.peek().kind == "NEWLINE":
            self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.text == word

    # -- grammar ----------------------------------------------------------

    def parse_program(self) -> Program:
        self.skip_newlines()
        self.expect_keyword("program")
        name = self.expect("IDENT", "task name").text
        self.expect("NEWLINE")
        subgoals = []
        self.skip_newlines()
        while self.at_keyword("subgoal"):
            subgoals.append(self.parse_subgoal())
            self.skip_newlines()
        if not subgoals:
            tok = self.peek()
            raise DslSyntaxError("program needs at least one subgoal", tok.line, tok.column, expected=("subgoal",))
        tok = self.peek()
        if tok.kind != "EOF":
            raise DslSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column, expected=("subgoal", "end of file"))
        return Program(name, tuple(subgoals))

    def parse_subgoal(self) -> SubgoalBlock:
        self.expect_keyword("subgoal")
        description = unescape_string(self.expect("STRING", "subgoal description").text)
        self.expect("NEWLINE")
        statements = []
        self.skip_newlines()
        while self.peek().kind == "IDENT" and not self.at_keyword("subgoal"):
            statements.append(self.parse_stmt(allow_parallel=True))
            self.skip_newlines()
        return SubgoalBlock(description, tuple(statements))

    def parse_stmt(self, allow_parallel: bool):
        tok = self.peek()
        if self.at_keyword("parallel"):
            if not allow_parallel:
                raise DslSyntaxError("parallel blocks cannot nest", tok.line, tok.column)
            return self.parse_parallel()
        return self.parse_call()

    def parse_parallel(self) -> ParallelStmt:
        start = self.expect_keyword("parallel")
        stmt_id = next(self.ids)
        left = self.parse_branch()
        right = self.parse_branch()
        if self.peek().kind == "NEWLINE":
            self.advance()
        return ParallelStmt(left, right, stmt_id, start.line)

    def parse_branch(self) -> tuple:
        self.skip_newlines()
        self.expect("LBRACE")
        self.skip_newlines()
        stmts = []
        while self.peek().kind != "RBRACE":
            if self.peek().kind == "EOF":
                tok = self.peek()
                raise DslSyntaxError("unterminated parallel branch", tok.line, tok.column, expected=("}",))
            stmts.append(self.parse_stmt(allow_parallel=False))
            self.skip_newlines()
        self.expect("RBRACE")
        return tuple(stmts)

    def parse_call(self) -> CallStmt:
        name_tok = self.expect("IDENT", "call name")
        name = name_tok.text
        signature = API_SIGNATURES.get(name)
        if signature is None:
            raise UnknownApiError(name, name_tok.line, name_tok.column)
        self.expect("LPAREN")
        bound: dict[str, object] = {}
        keywords: set[str] = set()
        more = self.peek().kind != "RPAREN"
        while more:
            tok = self.peek()
            if tok.kind == "IDENT" and self.tokens[self.pos + 1].kind == "EQUALS":
                self.pos += 2  # the keyword and '='
                value_tok = self.peek()
                value = self.parse_value()
                key = tok.text
                param = next((p for p in signature if p.name == key), None)
                if key in keywords:
                    raise BadArgError(f"duplicate argument {key!r}", value_tok.line, value_tok.column)
                if param is None:
                    raise BadArgError(f"{name} has no argument {key!r}", value_tok.line, value_tok.column)
                if key in bound:
                    raise BadArgError(f"argument {key!r} given twice", value_tok.line, value_tok.column)
                keywords.add(key)
            else:
                if keywords:
                    raise BadArgError("positional argument after keyword argument", tok.line, tok.column)
                value_tok = tok
                value = self.parse_value()
                if len(bound) == len(signature):
                    raise BadArgError(f"{name} takes at most {len(signature)} arguments", name_tok.line)
                param = signature[len(bound)]
            expects, take = _KINDS[param.kind]
            value = take(value)
            if value is None:
                raise BadArgError(f"argument {param.name!r} expects {expects}", value_tok.line)
            bound[param.name] = value
            more = self.peek().kind == "COMMA"
            if more:
                self.advance()
        self.expect("RPAREN")
        if self.peek().kind == "NEWLINE":
            self.advance()
        missing = [p.name for p in signature if p.required and p.name not in bound]
        if missing:
            raise BadArgError(f"{name} missing required argument {missing[0]!r}", name_tok.line)
        args = Args({p.name: bound.get(p.name, p.default) for p in signature})
        return CallStmt(name, args, next(self.ids), name_tok.line)

    def parse_value(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return _number(tok)
        if tok.kind == "STRING":
            return self.advance()  # only a string argument takes it (see _KINDS)
        if tok.kind == "IDENT":
            # fp/pose act as constructors only when a '(' follows; bare they
            # are ordinary symbols (pre_dis_axis=fp).
            if tok.text == "fp" and self.tokens[self.pos + 1].kind == "LPAREN":
                return self.parse_fp()
            if tok.text == "pose" and self.tokens[self.pos + 1].kind == "LPAREN":
                return self.parse_pose()
            self.advance()
            return tok.text  # bare symbol: arm, enum, actor, true/false, ...
        raise DslSyntaxError(f"got {tok.kind} {tok.text!r}", tok.line, tok.column, expected=("value",))

    def parse_fp(self) -> FpRef:
        self.advance()  # 'fp'
        self.expect("LPAREN")
        actor = self.expect("IDENT", "actor name").text
        self.expect("COMMA")
        num_tok = self.expect("NUMBER", "functional point id")
        value = _number(num_tok)
        if type(value) is not int:
            raise BadArgError("functional point id must be an integer", num_tok.line, num_tok.column)
        self.expect("RPAREN")
        return FpRef(actor, value)

    def parse_pose(self) -> PoseLit:
        self.advance()  # 'pose'
        self.expect("LPAREN")
        values = [float(_number(self.expect("NUMBER", "pose component")))]
        for _ in range(6):
            self.expect("COMMA")
            values.append(float(_number(self.expect("NUMBER", "pose component"))))
        self.expect("RPAREN")
        return PoseLit(tuple(values))


def _number(tok: Token):
    """A NUMBER token's value, an int where it has neither point nor exponent;
    one past the float range or too long for int() is a BadArgError."""
    try:
        value = int(tok.text) if tok.text.lstrip("-").isdigit() else float(tok.text)
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):  # over int()'s digit limit; an int beyond the float range
        pass
    raise BadArgError("number literal out of range", tok.line, tok.column)


# Argument kind -> (what its error says it expects, the value an argument
# read as v binds to, or None where the kind does not take v). A quoted
# string is read as its STRING token, which no kind but STRING takes.
_KINDS = {
    NUM: ("a number", lambda v: float(v) if type(v) in (int, float) else None),
    "ident": ("an identifier", lambda v: v if type(v) is str else None),
    ARM: ("left or right", lambda v: v if v in ARM_TAGS else None),
    STRING: ("a quoted string", lambda v: unescape_string(v.text) if type(v) is Token else None),
    BOOL: ("true or false", lambda v: v == "true" if v in ("true", "false") else None),
    INT_OR_AUTO: ("an integer or auto", lambda v: v if type(v) is int else "auto" if v == "auto" else None),
    INT_OR_NONE: ("an integer or none", lambda v: v if type(v) is int else "none" if v == "none" else None),
    TARGET: ("fp(actor, id) or pose(...)", lambda v: v if type(v) in (FpRef, PoseLit) else None),
}
# Each enum(...) kind is its own entry: one of its words.
_KINDS.update(
    (p.kind, (f"one of {', '.join(p.kind[1])}", lambda v, words=p.kind[1]: v if v in words else None))
    for signature in API_SIGNATURES.values() for p in signature if type(p.kind) is tuple
)


def parse(text: str) -> Program:
    """Parse program text into a Program with dense source-ordered ids."""
    return _Parser(lex(text)).parse_program()
