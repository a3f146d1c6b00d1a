"""Model adapter layer: decomposition, synthesis, and verification, each
with a remote chat-completion backend and a deterministic offline mock."""

from .config import AgentConfig
from .diagnosis import CAUSE_FROM_ERROR, CAUSES, Diagnosis, SubgoalVerdict, render_diagnosis
from .prompts import build_synthesis_prompt
from .remote import ChatBackend
from .synthesizer import Synthesizer, extract_code_block, parse_subgoal_list
from .verifier import Verifier, parse_remote_diagnosis

__all__ = [
    "AgentConfig",
    "CAUSES",
    "CAUSE_FROM_ERROR",
    "ChatBackend",
    "Diagnosis",
    "SubgoalVerdict",
    "Synthesizer",
    "Verifier",
    "build_synthesis_prompt",
    "extract_code_block",
    "parse_remote_diagnosis",
    "parse_subgoal_list",
    "render_diagnosis",
]
