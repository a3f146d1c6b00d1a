"""Chat-completion transport with retries and exponential backoff.

One blocking call per request; independent calls share no mutable state, so
callers may issue them concurrently. The wire shape is the ubiquitous
messages-in / choices-out JSON POST; endpoint and model come from config
and the API key is read from the environment variable the config names.
"""

from __future__ import annotations

import json
import os
import time
from types import NoneType

from ..errors import AgentFailureError, BackendError, MalformedReplyError
from .config import AgentConfig

_BACKOFF_BASE_S = 0.5
_RETRYABLE_STATUS = (429, 500, 502, 503, 504)


def _default_transport(url: str, headers: dict, payload: dict, timeout: float):
    # Imported here: urllib.request brings in http.client, ssl and email,
    # which no command needs until a remote backend sends its first request.
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers)
    try:
        response = urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:  # a non-2xx status: the caller decides on it
        response = exc
    with response:
        return response.status, response.read().decode("utf-8", "replace")


class ChatBackend:
    """Minimal chat-completion client for any endpoint speaking the common
    JSON protocol. A custom ``transport(url, headers, payload, timeout)``
    callable can replace the HTTP layer (used heavily in tests)."""

    def __init__(self, config: AgentConfig, transport=None, sleep=time.sleep):
        self.config = config
        self.transport = transport or _default_transport
        self._sleep = sleep

    def api_key(self) -> str:
        key = os.environ.get(self.config.api_key_env, "")
        if not key:
            raise AgentFailureError(
                f"environment variable {self.config.api_key_env!r} is not set"
            )
        return key

    def complete(self, messages: list[dict]) -> str:
        """POST the messages and return the reply text, retrying transient
        failures with exponential backoff."""
        key = self.api_key()  # resolved before any network traffic
        payload = {
            "model": self.config.model,
            "messages": messages,
            "temperature": self.config.temperature,
        }
        headers = {
            "Authorization": f"Bearer {key}",
            "Content-Type": "application/json",
        }
        attempts = max(1, self.config.max_retries)
        last_error: BackendError | None = None
        for attempt in range(attempts):
            if attempt:
                self._sleep(_BACKOFF_BASE_S * 2 ** (attempt - 1))
            try:
                status, body = self.transport(
                    self.config.endpoint, headers, payload, self.config.timeout_s
                )
            except Exception as exc:  # transport-level failure
                last_error = BackendError(f"transport error: {exc}")
                continue
            if status in _RETRYABLE_STATUS:
                last_error = BackendError(f"HTTP {status}", status=status)
                continue
            if status != 200:
                raise BackendError(f"HTTP {status}: {body[:200]}", status=status)
            return _extract_text(body)
        assert last_error is not None
        raise last_error


def _extract_text(body: str) -> str:
    """The reply text of a chat body: choices[0].message.content, or
    choices[0].text as completion endpoints send it."""
    get = MalformedReplyError.get
    choices = get(MalformedReplyError.loads(body, "body"), "choices", list, "body")
    if not choices:
        raise MalformedReplyError("body.choices", "no choices")
    message = get(choices[0], "message", dict, "body.choices[0]", default={})
    text = (get(message, "content", (str, NoneType), "body.choices[0].message", default=None)
            or get(choices[0], "text", str, "body.choices[0]", default=""))
    if not text.strip():
        raise MalformedReplyError("body.choices[0]", "reply text is empty")
    return text
