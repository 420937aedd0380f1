"""Write hand-edited cache envelopes in the artifact store's on-disk layout.

The store checks an entry's integrity hash over the payload's bytes as they
sit in the file, so it accepts only the layout it writes: the envelope's
canonical JSON (sorted keys, no whitespace).  A test that edits an envelope
to reach one particular check (a schema version, a results format, a stale
integrity hash) writes it back through here, so that the layout check does
not reject the entry first.  The integrity hash is written as given.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict

from repro.runtime.jobs import canonical_json


def envelope_bytes(envelope: Dict[str, Any]) -> bytes:
    """``envelope`` in the store's layout."""
    return canonical_json(envelope).encode("utf-8")


def write_envelope(path: Path, envelope: Dict[str, Any]) -> None:
    """Write ``envelope`` to ``path`` in the store's layout."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(envelope_bytes(envelope))
