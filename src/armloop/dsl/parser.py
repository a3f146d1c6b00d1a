"""Lexer and recursive-descent parser for the line-oriented program syntax.

Grammar (normative, also in the README):

    program   := "program" IDENT NEWLINE subgoal+
    subgoal   := "subgoal" STRING NEWLINE stmt+
    stmt      := call NEWLINE | "parallel" "{" stmt+ "}" "{" stmt+ "}" NEWLINE
    call      := IDENT "(" [arg ("," arg)*] ")"
    arg       := IDENT "=" value | value
    value     := NUMBER | IDENT | STRING | "fp" "(" IDENT "," INT ")"
               | "pose" "(" NUMBER{7, comma-sep} ")"

``#`` starts a line comment. Parallel branches may not nest further
parallel blocks, and every call must come from the closed API set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    CallStmt,
    FpRef,
    ParallelStmt,
    PoseLit,
    Program,
    SubgoalBlock,
    renumber,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:\\.|[^"\\\n])*")
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<LBRACE>\{)
  | (?P<RBRACE>\})
  | (?P<COMMA>,)
  | (?P<EQUALS>=)
  | (?P<COMMENT>\#.*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def lex(text: str) -> list[Token]:
    """Tokenize; emits NEWLINE tokens (collapsed blank/comment lines). A
    ``#`` outside a string starts a comment that runs to the end of the line."""
    tokens: list[Token] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        pos = 0
        emitted = False
        while pos < len(line):
            if line[pos] in " \t\r":
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise DslSyntaxError(
                    f"unexpected character {line[pos]!r}", lineno, pos + 1
                )
            if m.lastgroup == "COMMENT":
                break
            tokens.append(Token(str(m.lastgroup), m.group(), lineno, pos + 1))
            emitted = True
            pos = m.end()
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
            subgoals.append(self.parse_subgoal(len(subgoals) + 1))
            self.skip_newlines()
        if not subgoals:
            tok = self.peek()
            raise DslSyntaxError("program needs at least one subgoal", tok.line, tok.column, expected=("subgoal",))
        tok = self.peek()
        if tok.kind != "EOF":
            raise DslSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column, expected=("subgoal", "end of file"))
        return renumber(Program(name, subgoals))

    def parse_subgoal(self, index: int) -> SubgoalBlock:
        self.expect_keyword("subgoal")
        description = unescape_string(self.expect("STRING", "subgoal description").text)
        self.expect("NEWLINE")
        statements = []
        self.skip_newlines()
        while self.peek().kind == "IDENT" and not self.at_keyword("subgoal"):
            statements.append(self.parse_stmt(allow_parallel=True))
            self.skip_newlines()
        if not statements:
            tok = self.peek()
            raise DslSyntaxError("subgoal needs at least one statement", tok.line, tok.column, expected=("call",))
        return SubgoalBlock(index, description, statements)

    def parse_stmt(self, allow_parallel: bool):
        tok = self.peek()
        if self.at_keyword("parallel"):
            if not allow_parallel:
                raise DslSyntaxError("parallel blocks cannot nest", tok.line, tok.column)
            return self.parse_parallel()
        return self.parse_call()

    def parse_parallel(self) -> ParallelStmt:
        start = self.expect_keyword("parallel")
        left = self.parse_branch()
        right = self.parse_branch()
        if self.peek().kind == "NEWLINE":
            self.advance()
        return ParallelStmt(left, right, line=start.line)

    def parse_branch(self) -> list:
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
        if not stmts:
            tok = self.peek()
            raise DslSyntaxError("parallel branch needs at least one statement", tok.line, tok.column)
        return stmts

    def parse_call(self) -> CallStmt:
        name_tok = self.expect("IDENT", "call name")
        name = name_tok.text
        if name not in API_SIGNATURES:
            raise UnknownApiError(name, name_tok.line, name_tok.column)
        self.expect("LPAREN")
        positional, keyword = self.parse_args(name_tok)
        self.expect("RPAREN")
        if self.peek().kind == "NEWLINE":
            self.advance()
        args = _bind_args(name, positional, keyword, name_tok.line)
        return CallStmt(name, args, line=name_tok.line)

    def parse_args(self, name_tok: Token):
        positional: list[tuple[object, Token]] = []
        keyword: dict[str, tuple[object, Token]] = {}
        if self.peek().kind == "RPAREN":
            return positional, keyword
        while True:
            tok = self.peek()
            if tok.kind == "IDENT" and self.tokens[self.pos + 1].kind == "EQUALS":
                key = self.advance().text
                self.advance()  # '='
                value_tok = self.peek()
                value = self.parse_value()
                if key in keyword:
                    raise BadArgError(f"duplicate argument {key!r}", value_tok.line, value_tok.column)
                keyword[key] = (value, value_tok)
            else:
                if keyword:
                    raise BadArgError("positional argument after keyword argument", tok.line, tok.column)
                positional.append((self.parse_value(), tok))
            if self.peek().kind == "COMMA":
                self.advance()
                continue
            return positional, keyword

    def parse_value(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return _parse_number(tok.text)
        if tok.kind == "STRING":
            self.advance()
            return _QuotedStr(unescape_string(tok.text))
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
        value = _parse_number(num_tok.text)
        if not isinstance(value, int):
            raise BadArgError("functional point id must be an integer", num_tok.line, num_tok.column)
        self.expect("RPAREN")
        return FpRef(actor, value)

    def parse_pose(self) -> PoseLit:
        self.advance()  # 'pose'
        self.expect("LPAREN")
        values = [float(_parse_number(self.expect("NUMBER", "pose component").text))]
        for _ in range(6):
            self.expect("COMMA")
            values.append(float(_parse_number(self.expect("NUMBER", "pose component").text)))
        self.expect("RPAREN")
        return PoseLit(tuple(values))


class _QuotedStr(str):
    """Marks a value that appeared as a quoted string in source."""


def _parse_number(text: str):
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    return float(text)


def _coerce(kind, value, name: str, line: int):
    if kind == NUM:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BadArgError(f"argument {name!r} expects a number", line)
        return float(value)
    if kind == "ident":
        if not isinstance(value, str) or isinstance(value, _QuotedStr):
            raise BadArgError(f"argument {name!r} expects an identifier", line)
        return str(value)
    if kind == ARM:
        if not isinstance(value, str) or value not in ARM_TAGS:
            raise BadArgError(f"argument {name!r} expects left or right", line)
        return str(value)
    if kind == STRING:
        if not isinstance(value, _QuotedStr):
            raise BadArgError(f"argument {name!r} expects a quoted string", line)
        return str(value)
    if kind == BOOL:
        if value in ("true", "false"):
            return value == "true"
        raise BadArgError(f"argument {name!r} expects true or false", line)
    if kind == INT_OR_AUTO:
        if value == "auto":
            return "auto"
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise BadArgError(f"argument {name!r} expects an integer or auto", line)
    if kind == INT_OR_NONE:
        if value == "none":
            return "none"
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise BadArgError(f"argument {name!r} expects an integer or none", line)
    if kind == TARGET:
        if isinstance(value, (FpRef, PoseLit)):
            return value
        raise BadArgError(f"argument {name!r} expects fp(actor, id) or pose(...)", line)
    if isinstance(kind, tuple) and kind[0] == "enum":
        if isinstance(value, str) and value in kind[1]:
            return str(value)
        raise BadArgError(f"argument {name!r} expects one of {', '.join(kind[1])}", line)
    raise AssertionError(f"unhandled kind {kind!r}")


def _bind_args(name: str, positional, keyword, line: int) -> dict:
    signature = API_SIGNATURES[name]
    if len(positional) > len(signature):
        raise BadArgError(f"{name} takes at most {len(signature)} arguments", line)
    bound: dict[str, object] = {}
    for param, (value, tok) in zip(signature, positional):
        bound[param.name] = _coerce(param.kind, value, param.name, tok.line)
    valid_names = {p.name for p in signature}
    for key, (value, tok) in keyword.items():
        if key not in valid_names:
            raise BadArgError(f"{name} has no argument {key!r}", tok.line, tok.column)
        if key in bound:
            raise BadArgError(f"argument {key!r} given twice", tok.line, tok.column)
        param = next(p for p in signature if p.name == key)
        bound[key] = _coerce(param.kind, value, key, tok.line)
    args: dict[str, object] = {}
    for param in signature:
        if param.name in bound:
            args[param.name] = bound[param.name]
        elif param.required:
            raise BadArgError(f"{name} missing required argument {param.name!r}", line)
        else:
            args[param.name] = param.default
    return args


def parse(text: str) -> Program:
    """Parse program text into a Program with dense source-ordered ids."""
    return _Parser(lex(text)).parse_program()
