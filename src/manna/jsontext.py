"""Canonical JSON text: sorted keys, two-space indent, newline end.

Every file and report manna writes is this text, so its bytes are what the
golden files and the benchmark's digests pin.
"""

from __future__ import annotations

import json


def dumps(obj) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline end.

    The text is ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.  With
    ``indent`` set, the standard library encodes in pure Python, so the
    JSON this package writes (dicts with string keys, lists, strings, ints,
    bools and None) is rendered here instead: every string by the C escaper
    the encoder itself uses, every list of plain ints in one join, and every
    plain int value of a dict together with its key.  Any other value (a
    float, a key that is not a string) falls back to ``json.dumps``.
    """
    chunks: list[str] = []
    try:
        _render(obj, "\n", chunks)
    except _Unrendered:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    chunks.append("\n")
    return "".join(chunks)


class _Unrendered(Exception):
    """A value ``_render`` leaves to ``json.dumps``."""


_encode_str = json.encoder.encode_basestring_ascii


def _render(obj, newline: str, chunks: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``chunks``; ``newline`` is a line
    break followed by the indent of the line ``obj`` starts on."""
    if isinstance(obj, dict):
        if not obj:
            chunks.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise _Unrendered
            if type(value) is int:
                chunks.append(f"{opener}{_encode_str(key)}: {int.__repr__(value)}")
            else:
                chunks.append(opener + _encode_str(key) + ": ")
                _render(value, inner, chunks)
            opener = "," + inner
        chunks.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            chunks.append("[]")
            return
        inner = newline + "  "
        if all(type(value) is int for value in obj):
            items = ("," + inner).join(map(int.__repr__, obj))
            chunks.append(f"[{inner}{items}{newline}]")
            return
        opener = "[" + inner
        for value in obj:
            chunks.append(opener)
            _render(value, inner, chunks)
            opener = "," + inner
        chunks.append(newline + "]")
    elif isinstance(obj, str):
        chunks.append(_encode_str(obj))
    elif obj is None:
        chunks.append("null")
    elif obj is True:
        chunks.append("true")
    elif obj is False:
        chunks.append("false")
    elif isinstance(obj, int):
        chunks.append(int.__repr__(obj))
    else:
        raise _Unrendered
