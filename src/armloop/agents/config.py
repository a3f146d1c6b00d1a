"""Adapter configuration for the model-backed stages."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import AgentFailureError


@dataclass
class AgentConfig:
    backend: str = "mock"  # mock | remote
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    timeout_s: float = 30.0
    max_retries: int = 3
    temperature: float = 0.0
    playbook: list = field(default_factory=list)  # mock synthesis: .prog paths

    def __post_init__(self):
        if self.backend not in ("mock", "remote"):
            raise AgentFailureError(f"unknown backend {self.backend!r}")
        if self.backend == "remote" and (not self.endpoint or not self.api_key_env):
            raise AgentFailureError(
                "remote backend requires an endpoint and an api_key_env name"
            )
