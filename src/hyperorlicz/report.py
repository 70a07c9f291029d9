"""Deterministic record serialization for command output.

Bodies are canonical JSON lines: keys sorted, floats printed with %.12g,
no whitespace variation.  Anything run-dependent (timestamp, content hash)
lives only in the header record so repeated runs produce byte-identical
bodies.

The header's sha256 comes from CPython's lean builtin module (``_sha256``
up to 3.11, ``_sha2`` from 3.12), as stdlib ``random`` takes its sha512:
``hashlib`` loads OpenSSL's ``_hashlib``, which costs more than the rest of
this module's import.  ``hashlib`` is the fallback where neither exists; the
digest is the same either way.
"""
import json
import math
from datetime import datetime, timezone
from typing import Any, Iterable, Sequence

try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256


def _canon(value: Any) -> Any:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


# json.dumps builds an encoder per call once sort_keys is set; one shared
# encoder with dumps' other defaults gives the same text.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def record_line(record: dict[str, Any]) -> str:
    """One canonical JSON line for a record."""
    return _ENCODER.encode(_canon(record))


def body_lines(records: Iterable[dict[str, Any]]) -> list[str]:
    return [record_line(r) for r in records]


def header_record(command: str, scenario_id: str, body: Sequence[str]) -> str:
    """Head line carrying the run metadata: command, scenario id, record
    count, body content hash, and the (run-dependent) timestamp."""
    digest = sha256("\n".join(body).encode("utf-8")).hexdigest()
    head = {
        "record": "header",
        "command": command,
        "scenario": scenario_id,
        "records": len(body),
        "sha256": digest,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return _ENCODER.encode(head)


def render_records(command: str, scenario_id: str,
                   records: Iterable[dict[str, Any]]) -> str:
    body = body_lines(records)
    return "\n".join([header_record(command, scenario_id, body)] + body) + "\n"


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        text = f"{value:.12g}"
    elif isinstance(value, bool):
        text = "true" if value else "false"
    elif value is None:
        text = ""
    elif isinstance(value, (list, tuple)):
        text = ";".join(str(v) for v in value)
    else:
        text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def render_csv(records: Iterable[dict[str, Any]]) -> str:
    """Flat CSV projection of row-shaped records: the union of keys in
    sorted order, one line per record, no header metadata."""
    rows = [_canon(r) for r in records]
    keys: list[str] = sorted({k for r in rows for k in r})
    lines = [",".join(keys)]
    for r in rows:
        lines.append(",".join(_csv_cell(r.get(k)) for k in keys))
    return "\n".join(lines) + "\n"
