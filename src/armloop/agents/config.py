"""Adapter configuration for the model-backed stages."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError


@dataclass
class AgentConfig:
    """A model stage's settings; a field declares its default and its bound."""

    backend: str = field(default="mock", metadata={"choices": ("mock", "remote")})
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    timeout_s: float = field(default=30.0, metadata={"above": 0})
    max_retries: int = field(default=2, metadata={"minimum": 0})  # a call is tried 1 + max_retries times
    temperature: float = field(default=0.0, metadata={"minimum": 0})

    def __post_init__(self):
        ConfigError.check_fields(self)
        if self.backend == "remote" and (not self.endpoint or not self.api_key_env):
            raise ConfigError("backend", "remote backend requires an endpoint and an api_key_env name")
