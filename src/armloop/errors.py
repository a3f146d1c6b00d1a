"""Exception hierarchy shared across the package.

Every exception carries a short machine-readable ``code`` so CLI output and
tests can match on the condition rather than on message wording.
"""

from __future__ import annotations


class ArmloopError(Exception):
    code = "error"


class TaskParseError(ArmloopError):
    """Task file is not readable as JSON (or is empty)."""

    code = "parse_error"


class FieldError(ArmloopError):
    """A malformed input that names where it is: a field, a flag or path:line."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class TaskSchemaError(FieldError):
    """Task file parsed but violates an invariant; names the offending field."""

    code = "schema_error"


class ConfigError(FieldError):
    """Campaign config file or command-line option unreadable or malformed;
    names the offending field or flag."""

    code = "config_error"


class ArtifactError(FieldError):
    """Run artifact (trials.jsonl, campaign.json, a snapshot payload) does
    not match its schema; names the file and line or field."""

    code = "artifact_error"


class UnknownActorError(ArmloopError):
    code = "unknown_actor"

    def __init__(self, actor: str):
        super().__init__(f"unknown actor {actor!r}")
        self.actor = actor


class UnknownPointError(ArmloopError):
    code = "unknown_point"

    def __init__(self, actor: str, category: str, point_id: int):
        super().__init__(f"actor {actor!r} has no {category} point {point_id}")
        self.actor = actor
        self.category = category
        self.point_id = point_id


class DslSyntaxError(ArmloopError):
    """Concrete-syntax error with position and the expected token set."""

    code = "syntax_error"

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        loc = f"line {line}, col {column}"
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{loc}: {message}{exp}")
        self.line = line
        self.column = column
        self.expected = expected


class UnknownApiError(DslSyntaxError):
    code = "unknown_api"

    def __init__(self, name: str, line: int, column: int):
        DslSyntaxError.__init__(self, f"unknown call {name!r}", line, column)
        self.name = name


class BadArgError(DslSyntaxError):
    code = "bad_arg"

    def __init__(self, message: str, line: int, column: int = 0):
        DslSyntaxError.__init__(self, message, line, column)


class CapTooSmallError(ArmloopError):
    code = "cap_too_small"


class NoSnapshotsError(ArmloopError):
    code = "no_snapshots"


class BackendError(ArmloopError):
    """Transport or HTTP failure talking to a remote model endpoint."""

    code = "backend_error"

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class MalformedReplyError(ArmloopError):
    code = "malformed_reply"


class NoCodeBlockError(ArmloopError):
    code = "no_code_block"


class InvalidProgramError(ArmloopError):
    """Synthesized program failed static validation; diagnostics attached."""

    code = "invalid_program"

    def __init__(self, diagnostics):
        super().__init__(
            "; ".join(str(d) for d in diagnostics) or "program failed validation"
        )
        self.diagnostics = list(diagnostics)


class NothingToFuseError(ArmloopError):
    code = "nothing_to_fuse"


class AgentFailureError(ArmloopError):
    code = "agent_failure"


class EmptyCampaignError(ArmloopError):
    code = "empty_campaign"
