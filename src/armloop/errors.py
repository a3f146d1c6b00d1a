"""Exception hierarchy shared across the package.

Every exception carries a short machine-readable ``code`` so CLI output and
tests can match on the condition rather than on message wording.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import NoneType


class ArmloopError(Exception):
    code = "error"


_JSON_NAMES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    NoneType: "null",
}
_REQUIRED = object()


class FieldError(ArmloopError):
    """A malformed input that names where it is: a field, a flag or path:line
    (an empty name: the input as a whole).

    The classmethods are the one checked reader of task files, configs, run
    artifacts and model replies; the class they are called on is the error
    they raise. One type rule holds for every input, as JSON states it: a
    bool is never a number, an int field takes only an int, a float field an
    int or a float that is finite, a bool field only true or false.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field

    @classmethod
    def read_text(cls, path, where: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise cls(where, f"cannot read {path}: {reason}") from None

    @classmethod
    def read_json(cls, path, where: str):
        return cls.loads(cls.read_text(path, where), where)

    @classmethod
    def loads(cls, text: str, where: str):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise cls(where, f"not JSON: line {exc.lineno}, col {exc.colno}: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
            raise cls(where, f"not JSON: {exc}") from None

    @staticmethod
    def literal(text: str):
        """The JSON value a piece of text spells (a number inside a compact
        reference or an annotation), else the text itself, for check()."""
        try:
            return json.loads(text)
        except (ValueError, RecursionError):
            return text

    @classmethod
    def check(cls, value, kind, where: str, minimum=None, above=None):
        """value if it is of kind (a type or a tuple of types) and within the
        bounds; an int read as a float field comes back as a float."""
        t = type(value)
        if t is not kind:
            kinds = kind if type(kind) is tuple else (kind,)
            if t is int and float in kinds and abs(value) <= sys.float_info.max:
                value, t = float(value), float
            elif t not in kinds:
                names = " or ".join(_JSON_NAMES[k] for k in kinds)
                raise cls(where, f"expected {names}, got {value!r}")
        if t is float and not math.isfinite(value):
            raise cls(where, f"expected {_JSON_NAMES[float]}, got {value!r}")
        if minimum is not None and value < minimum:
            raise cls(where, f"must be at least {minimum}, got {value!r}")
        if above is not None and value <= above:
            raise cls(where, f"must be above {above}, got {value!r}")
        return value

    @classmethod
    def get(cls, obj, key: str, kind, where: str = "", default=_REQUIRED,
            minimum=None, above=None):
        """obj[key] checked as check() does, named where.key; a missing key
        gives default, or raises when no default is given."""
        if type(obj) is not dict:
            raise cls(where, f"expected an object, got {obj!r}")
        at = f"{where}.{key}" if where else key
        if key in obj:
            return cls.check(obj[key], kind, at, minimum, above)
        if default is _REQUIRED:
            raise cls(at, "missing required field")
        return default


class TaskParseError(FieldError):
    """Task file is not readable as a JSON object; names the file."""

    code = "parse_error"


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


class MalformedReplyError(FieldError):
    """Model output (a chat body or the reply text in it) does not match the
    shape its stage expects; names the field."""

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
