"""Exception hierarchy shared across the package.

Every exception carries a short machine-readable ``code`` so CLI output and
tests can match on the condition rather than on message wording.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import fields
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
# A record field's declared type, as its annotation reads, -> the JSON values it holds (None: its reader checks it).
_DECLARED = {"bool": bool, "int": int, "float": float, "str": str, "list": list, "dict": dict,
             "str | None": (str, NoneType), "tuple": None, "AgentConfig": None}
_RECORD_FIELDS: dict = {}  # record class -> [(field name, JSON values, bounds)], filled on first use
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
        self.reason = message

    @classmethod
    def read_text(cls, path, where: str, newline=None) -> str:  # newline as open() takes it
        try:
            with open(path, encoding="utf-8", newline=newline) as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise cls(where, f"cannot read {path}: {reason}") from None

    @classmethod
    @contextlib.contextmanager
    def writing(cls, path, where: str):
        """An OSError raised within the block is this error: cannot write path."""
        try:
            yield
        except OSError as exc:
            raise cls(where, f"cannot write {path}: {exc.strerror}") from None

    @classmethod
    def write_text(cls, path, text, where: str) -> None:
        """text (a str, or an iterable of str pieces written as they come) to path."""
        with cls.writing(path, where), open(path, "w", encoding="utf-8") as fh:
            fh.writelines([text] if type(text) is str else text)

    @classmethod
    def make_dir(cls, path, where: str) -> Path:
        path = Path(path)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise cls(where, f"cannot create {path}: {exc.strerror}") from None
        return path

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
    def check(cls, value, kind, where: str, minimum=None, above=None, maximum=None, choices=None):
        """value if it is of kind (a type or a tuple of types), within the
        bounds and, given choices, one of them (None, where kind allows it,
        has no bound); an int read as a float field comes back as a float."""
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
        if value is None:  # an optional field left unset: no bound applies
            return value
        if minimum is not None and value < minimum:
            raise cls(where, f"must be at least {minimum}, got {value!r}")
        if above is not None and value <= above:
            raise cls(where, f"must be above {above}, got {value!r}")
        if maximum is not None and value > maximum:
            raise cls(where, f"must be at most {maximum}, got {value!r}")
        if choices is not None and value not in choices:
            raise cls(where, f"expected one of {list(choices)}, got {value!r}")
        return value

    @classmethod
    def get(cls, obj, key: str, kind, where: str = "", default=_REQUIRED,
            minimum=None, above=None, maximum=None, choices=None):
        """obj[key] checked as check() does, named where.key; a missing key
        gives default, or raises when no default is given."""
        if type(obj) is not dict:
            raise cls(where, f"expected an object, got {obj!r}")
        at = f"{where}.{key}" if where else key
        if key in obj:
            return cls.check(obj[key], kind, at, minimum, above, maximum, choices)
        if default is _REQUIRED:
            raise cls(at, "missing required field")
        return default

    @classmethod
    def check_fields(cls, record) -> None:
        """Each field of a dataclass record checked as check() does against
        its declared type and the bounds its metadata names (an int in a
        float field becomes a float), so that a record holds exactly its
        declared types. Only a value check() changed is assigned, so a
        frozen record whose fields pass is left as it is."""
        declared = _RECORD_FIELDS.get(type(record))
        if declared is None:  # fields() is slow, and a trial record is made per trial
            declared = _RECORD_FIELDS[type(record)] = [(f.name, kind, dict(f.metadata)) for f in fields(record)
                                                       if (kind := _DECLARED[f.type]) is not None]
        for name, kind, bounds in declared:
            value = getattr(record, name)
            if type(value) is not kind or bounds or kind is float:  # else check() returns it as it is
                checked = cls.check(value, kind, name, **bounds) if bounds else cls.check(value, kind, name)
                if checked is not value:
                    setattr(record, name, checked)

    @classmethod
    def build(cls, record_type, raw, where: str, **fixed):
        """record_type(**raw, **fixed) from a JSON object; fixed are fields
        the caller sets, which raw may not hold. A value that is no object,
        a missing or an unexpected field, or a field that check_fields
        rejects raises naming where and the field."""
        try:
            return record_type(**raw, **fixed)
        except TypeError:  # not an object, or a missing or an unexpected field
            got = list(cls.check(raw, dict, where))
            names = [f.name for f in fields(record_type) if f.name not in fixed]
            unexpected = next((key for key in got if key not in names), None)
            if unexpected is not None:
                raise cls(f"{where}.{unexpected}" if where else unexpected, "unexpected field") from None
            raise cls(where, f"expected fields {names}, got {got}") from None
        except FieldError as exc:
            raise cls(f"{where}.{exc.field}" if where and exc.field else where or exc.field, exc.reason) from None


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


class UnknownPointError(FieldError):
    """A point ref names a point its actor does not have; in a task file,
    names the reference."""

    code = "unknown_point"


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


class AgentFailureError(ArmloopError):
    code = "agent_failure"


class EmptyCampaignError(ArmloopError):
    code = "empty_campaign"


class WorkerError(ArmloopError):
    """A forked worker (parallel.Workers) that ended without sending its
    result, or an ArmloopError it raised, re-raised with that error's code
    and message."""

    code = "worker_failure"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code
