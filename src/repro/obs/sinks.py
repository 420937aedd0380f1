"""Pluggable event sinks: push campaign events to external systems.

The orchestrator (and anything else holding ledger-shaped events) publishes
through a :class:`SinkRouter`, which fans each event out to the sinks whose
kind filters match.  Three sink flavors ship:

:class:`JsonlFileSink`
    Appends one JSON line per event — the same committed-on-newline framing
    the run ledger uses, so a tailing consumer tolerates a torn final line.
:class:`WebhookSink`
    POSTs each event as JSON to an HTTP endpoint (stdlib ``urllib`` — no new
    dependency, imported by the sink itself so that processes without a
    webhook never load it).  The opener is injectable so tests never open
    sockets.
:class:`CallbackSink`
    Invokes an in-process callable (library embedders, tests).

Failure policy — the load-bearing rule of this module: **a sink failure
must never fail the campaign.**  Delivery is best-effort; errors increment
the router's/sink's error counters (and the process-global metrics spine)
instead of propagating.  The one deliberate exception is
:meth:`Sink.emit` implementations raising *through the router*: the router
catches everything, so even a buggy custom sink cannot kill a run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError
from repro.obs.metrics import get_metrics


class SinkEmitError(ReproError):
    """A sink could not deliver an event (callers see it only via counters)."""


class Sink:
    """Protocol of an event consumer: :meth:`emit` one JSON-ready dict.

    Subclassing is optional — the router duck-types on ``emit`` — but the
    base class provides the shared delivery counters.
    """

    #: Events delivered successfully.
    delivered = 0
    #: Events whose delivery raised.
    errors = 0

    def emit(self, event: Dict[str, Any]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable identity for status lines and error messages."""
        return type(self).__name__


class CallbackSink(Sink):
    """Deliver events to an in-process callable."""

    def __init__(self, callback: Callable[[Dict[str, Any]], None]) -> None:
        self.callback = callback
        self.delivered = 0
        self.errors = 0

    def emit(self, event: Dict[str, Any]) -> None:
        self.callback(event)
        self.delivered += 1

    def describe(self) -> str:
        return f"callback:{getattr(self.callback, '__name__', 'anonymous')}"


class JsonlFileSink(Sink):
    """Append events to a JSONL file, one committed line per event.

    Framing matches the run ledger: an event is committed by its trailing
    newline, written in a single ``write`` on an append-mode handle, so
    concurrent tailers see whole lines or nothing.  (Append mode is the
    blessed non-truncating pattern of the ``atomic-write`` lint rule; the
    rename helpers in :mod:`repro.runtime.atomic` are for whole-file
    payloads like the metrics snapshot.)
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.delivered = 0
        self.errors = 0

    def emit(self, event: Dict[str, Any]) -> None:
        line = json.dumps(event, sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
        self.delivered += 1

    def describe(self) -> str:
        return f"jsonl:{self.path}"


class WebhookSink(Sink):
    """POST each event as a JSON body to an HTTP(S) endpoint.

    Parameters
    ----------
    url:
        Target endpoint; each event becomes one ``POST`` with a JSON body.
    timeout:
        Per-delivery socket timeout in seconds.
    opener:
        Injectable transport ``(request, timeout) -> response`` used by
        tests; defaults to :func:`urllib.request.urlopen`.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 5.0,
        opener: Optional[Callable[..., Any]] = None,
    ) -> None:
        if not url.startswith(("http://", "https://")):
            raise SinkEmitError(f"webhook URL must be http(s), got {url!r}")
        import urllib.request

        self.url = url
        self.timeout = timeout
        self._opener = opener if opener is not None else urllib.request.urlopen
        self.delivered = 0
        self.errors = 0

    def emit(self, event: Dict[str, Any]) -> None:
        import urllib.request

        body = json.dumps(event, sort_keys=True).encode("utf-8")
        request = urllib.request.Request(
            self.url,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        response = self._opener(request, timeout=self.timeout)
        close = getattr(response, "close", None)
        if close is not None:
            close()
        self.delivered += 1

    def describe(self) -> str:
        return f"webhook:{self.url}"


class SinkRouter:
    """Fan events out to sinks by event kind, swallowing sink failures.

    Routes are ``(sink, kinds)`` pairs; ``kinds=None`` subscribes the sink
    to every event, otherwise only events whose ``"event"`` value is in the
    set.  Delivery errors are counted per router (and mirrored into the
    metrics spine as ``sinks.delivered`` / ``sinks.errors``) but never
    propagate — observability must not kill the run it observes.
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[Sink, Optional[frozenset]]] = []
        self.delivered = 0
        self.errors = 0
        self.last_error: Optional[str] = None

    def add(self, sink: Sink, kinds: Optional[Sequence[str]] = None) -> "SinkRouter":
        """Subscribe ``sink`` to ``kinds`` (``None`` = all events); chainable."""
        self._routes.append((sink, frozenset(kinds) if kinds is not None else None))
        return self

    def __len__(self) -> int:
        return len(self._routes)

    def emit(self, event: Dict[str, Any]) -> None:
        """Deliver one event to every matching sink (best-effort)."""
        kind = str(event.get("event", ""))
        for sink, kinds in self._routes:
            if kinds is not None and kind not in kinds:
                continue
            try:
                sink.emit(event)
            except Exception as exc:  # noqa: BLE001 - sinks must never kill a run
                sink.errors += 1
                self.errors += 1
                self.last_error = f"{sink.describe()}: {type(exc).__name__}: {exc}"
                get_metrics().inc("sinks.errors")
            else:
                self.delivered += 1
                get_metrics().inc("sinks.delivered")

    def stats(self) -> Dict[str, Any]:
        """Router-level delivery accounting (per-sink detail included)."""
        return {
            "sinks": [sink.describe() for sink, _ in self._routes],
            "delivered": self.delivered,
            "errors": self.errors,
            "last_error": self.last_error,
        }
