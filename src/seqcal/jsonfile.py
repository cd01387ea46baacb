"""The JSON side files beside the logs: task, distortion and model specs,
params files and reports.

One reader, one writer and one rule for which JSON values count as numbers.
The JSONL log reader in ``records`` keeps its own stricter rules.
"""

from __future__ import annotations

import json
import sys

from .errors import SeqcalError


def read_json(path, from_payload):
    """``from_payload`` of the JSON in file ``path``; a file that is not
    JSON, or a malformed payload, raises SeqcalError naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return from_payload(json.load(handle))
        except (SeqcalError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SeqcalError(f"{path}: {exc}") from exc


def write_json(path, payload) -> None:
    """``payload`` as indented JSON plus a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def is_number(value) -> bool:
    """A JSON number that is a finite float: not a bool, NaN, infinity or
    an integer past the float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def field(payload, name: str, kind: type | None = None, default=None):
    """Field ``name`` of a JSON object, or ``default`` when absent. ``kind``
    int or float asks for a finite JSON number (as ``kind``), bool for a
    JSON bool, None for any value. A payload that is not an object, or a
    missing or mistyped field, raises SeqcalError naming it."""
    if not isinstance(payload, dict):
        raise SeqcalError("expected a JSON object")
    if name not in payload and default is None:
        raise SeqcalError(f"missing field {name!r}")
    value = payload.get(name, default)
    if kind is None:
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise SeqcalError(f"field {name!r} must be true or false, got {value!r}")
        return value
    if not is_number(value) or (kind is int and not isinstance(value, int)):
        raise SeqcalError(f"field {name!r} must be {'an integer' if kind is int else 'a finite number'}, got {value!r}")
    return kind(value)
