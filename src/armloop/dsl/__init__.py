"""Manipulation DSL: grammar, AST, validator, and canonical printer."""

from .ast import (
    API_SIGNATURES,
    CallStmt,
    FpRef,
    ParallelStmt,
    PoseLit,
    Program,
    SubgoalBlock,
)
from .parser import count_tokens, lex, parse
from .printer import render_args, render_call, stmt_to_text, to_text
from .validator import Diagnostic, validate

__all__ = [
    "API_SIGNATURES",
    "CallStmt",
    "Diagnostic",
    "FpRef",
    "ParallelStmt",
    "PoseLit",
    "Program",
    "SubgoalBlock",
    "count_tokens",
    "lex",
    "parse",
    "render_args",
    "render_call",
    "stmt_to_text",
    "to_text",
    "validate",
]
