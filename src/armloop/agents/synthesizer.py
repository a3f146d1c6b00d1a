"""Subgoal decomposition and program synthesis adapters.

Two backends share one surface. The remote backend sends the assembled
prompt to a chat endpoint and parses the fenced code block out of the
reply. The mock backend replays a playbook: an ordered list of .prog
fixtures standing in for successive generations. The playbook cursor
advances only when the round's repair signal localizes at least one fault,
so a repair round that localized nothing hands back the same program -
which is exactly how the no-perception ablation gets stuck on silent
failures.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

from ..dsl import parse, validate
from ..dsl.ast import Program
from ..errors import InvalidProgramError, MalformedReplyError, NoCodeBlockError
from ..scene import TaskSpec
from .config import AgentConfig
from .remote import ChatBackend

if TYPE_CHECKING:
    from ..loop import RepairSignal

_CODE_BLOCK_RE = re.compile(r"```(?:[a-zA-Z0-9_+-]*\n)?(.*?)```", re.DOTALL)


def extract_code_block(reply: str) -> str:
    m = _CODE_BLOCK_RE.search(reply)
    if not m:
        raise NoCodeBlockError("reply contains no fenced code block")
    return m.group(1)


def parse_subgoal_list(reply: str) -> list[str]:
    """Parse a numbered or bulleted subgoal list out of a reply."""
    subgoals = []
    for line in reply.splitlines():
        line = line.strip()
        if not line:
            continue
        m = re.match(r"(?:\d+[.)]|[-*])\s+(.*)", line)
        if m:
            subgoals.append(m.group(1).strip())
    if not subgoals:
        raise MalformedReplyError("reply", "contains no subgoal list")
    return subgoals


class Playbook:
    """Ordered .prog fixtures consumed by the mock synthesizer."""

    def __init__(self, paths):
        self.paths = [Path(p) for p in paths]
        if not self.paths:
            raise ValueError("playbook needs at least one program")
        self.cursor = 0

    def current(self) -> str:
        return self.paths[self.cursor].read_text(encoding="utf-8")

    def advance(self):
        if self.cursor < len(self.paths) - 1:
            self.cursor += 1


class Synthesizer:
    """decompose() and synthesize() behind one adapter instance."""

    def __init__(self, config: AgentConfig, transport=None):
        self.config = config
        if config.backend == "mock":
            self.playbook = Playbook(config.playbook) if config.playbook else None
            self.backend = None
        else:
            self.playbook = None
            self.backend = ChatBackend(config, transport=transport)

    # -- decomposition ------------------------------------------------------

    def decompose(self, instruction: str, spec: TaskSpec) -> list[str]:
        """Ordered subgoal strings for the instruction. The mock backend
        returns the task's subgoal templates verbatim."""
        if not instruction.strip():
            raise ValueError("instruction is empty")
        if self.config.backend == "mock":
            return list(spec.subgoal_templates)
        reply = self.backend.complete(
            [
                {"role": "system", "content": "Decompose the instruction into short, ordered subgoals. Reply with a numbered list only."},
                {"role": "user", "content": f"Task: {spec.name}\nInstruction: {instruction}"},
            ]
        )
        return parse_subgoal_list(reply)

    # -- synthesis ----------------------------------------------------------

    def _mock_reply(self, signal: RepairSignal | None) -> str:
        if self.playbook is None:
            raise MalformedReplyError("playbook", "none configured for the mock synthesizer")
        if signal is not None and signal.faults:
            self.playbook.advance()
        return f"```\n{self.playbook.current()}```"

    def synthesize(self, prompt: str, spec: TaskSpec, signal: RepairSignal | None = None) -> Program:
        """Produce a parsed, statically valid program for the prompt.
        ``signal`` is the repair signal the prompt was rendered from (None
        on the first round); only the mock backend reads it."""
        if self.config.backend == "mock":
            reply = self._mock_reply(signal)
        else:
            reply = self.backend.complete(
                [
                    {"role": "system", "content": "You write robot manipulation programs. Reply with one fenced code block."},
                    {"role": "user", "content": prompt},
                ]
            )
        code = extract_code_block(reply)
        program = parse(code)
        diagnostics = validate(program, spec)
        if diagnostics:
            raise InvalidProgramError(diagnostics)
        return program
