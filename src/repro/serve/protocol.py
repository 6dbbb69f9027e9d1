"""The serve wire format: newline-delimited JSON, one message per line.

Every request is one JSON object with an ``op`` field; every reply is
one JSON object with ``ok`` (and ``error`` when ``ok`` is false).

Requests::

    {"op": "ping"}
    {"op": "submit", "kind": "point", "spec_b64": ...}
    {"op": "status", "job": "j1"}
    {"op": "wait",   "job": "j1"}
    {"op": "cancel", "job": "j1"}
    {"op": "stats"}
    {"op": "shutdown"}

Rich Python payloads — a point submission's ``run_coupled`` spec (it
carries :class:`~repro.staging.ndarray.Variable`, fault plans,
staging configs) and the :class:`~repro.workflows.driver.RunResult`
coming back — travel as base64-encoded pickles inside the JSON
envelope (``spec_b64`` / ``result_b64``).  That is the same trust
domain as the on-disk run cache (pickled by design) and the spawn-pool
pipes: the daemon listens on a ``0600`` unix socket by default, and
the optional TCP listener is for trusted networks only — never expose
it publicly.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Any, Dict, Optional

#: one message may not exceed this many bytes on the wire (a point's
#: result, the largest message, packs to under 9 kB across the study
#: and full-range Figure 2; this bounds a hostile or corrupt line)
MAX_LINE = 64 * (1 << 20)

#: protocol revision, echoed by ``ping`` so clients can refuse skew;
#: 2: points are the only submission kind, and ``stream`` is gone
PROTOCOL_VERSION = 2


def encode(message: Dict[str, Any]) -> bytes:
    """One message -> one ``\\n``-terminated JSON line."""
    line = json.dumps(message, sort_keys=True, separators=(",", ":"))
    return line.encode("utf-8") + b"\n"


def decode(line: bytes) -> Dict[str, Any]:
    """One wire line -> message dict (raises ``ValueError`` on junk)."""
    if len(line) > MAX_LINE:
        raise ValueError(f"message exceeds {MAX_LINE} bytes")
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("message must be a JSON object")
    return message


def error(reason: str) -> Dict[str, Any]:
    return {"ok": False, "error": reason}


def pack_pickle(obj: Any) -> str:
    """Pickle ``obj`` into a base64 string for the JSON envelope."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def unpack_pickle(payload: str) -> Any:
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


def parse_address(address: str) -> Dict[str, Optional[str]]:
    """Split a daemon address into socket-path or host/port parts.

    ``host:port`` (with a numeric port) means TCP; anything else is a
    unix socket path.  Returns ``{"socket_path": ...}`` or
    ``{"host": ..., "port": ...}``.
    """
    if ":" in address:
        host, _, port = address.rpartition(":")
        if host and port.isdigit():
            return {"host": host, "port": int(port)}
    return {"socket_path": address}
