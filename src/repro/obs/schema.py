"""Trace validation: a tiny JSON-Schema-subset checker, no dependencies.

CI's trace-smoke job runs ``python -m repro.obs.schema trace.json`` to
prove that what ``--trace`` wrote matches the checked-in contract at
``schemas/chrome_trace.schema.json``.  We support just the keywords that
schema uses -- ``type``, ``properties``, ``required``, ``items``,
``enum``, ``minimum`` -- because pulling in ``jsonschema`` is off the
table for this repo.

Beyond the schema, :func:`validate_trace` checks what a schema cannot:
that complete events carry ``ts``/``dur`` and that spans on each thread
lane (``pid``, ``tid``) nest properly (every child inside its parent,
siblings disjoint); that async intervals (``b``/``e``) and flow steps
(``s``/``t``/``f``) carry an ``id``; and that every async begin has a
matching end at or after it.  Async and flow events are exempt from the
nesting checks -- overlapping queue waits are exactly why they exist.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name: str) -> bool:
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def check(instance, schema: Dict, path: str = "$",
          errors: Optional[List[str]] = None) -> List[str]:
    """Collect schema violations for ``instance``; empty list means valid."""
    if errors is None:
        errors = []
    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(instance, name) for name in names):
            errors.append(f"{path}: expected {expected}, "
                          f"got {type(instance).__name__}")
            return errors
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool) and instance < schema["minimum"]:
        errors.append(f"{path}: {instance} below minimum {schema['minimum']}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in instance:
                check(instance[key], subschema, f"{path}.{key}", errors)
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            check(item, schema["items"], f"{path}[{index}]", errors)
    return errors


def default_schema_path() -> Path:
    """The checked-in trace schema (repo-root ``schemas/`` directory)."""
    return Path(__file__).resolve().parents[3] / "schemas" / "chrome_trace.schema.json"


def load_schema(path: Optional[str] = None) -> Dict:
    schema_path = Path(path) if path else default_schema_path()
    return json.loads(schema_path.read_text(encoding="utf-8"))


def validate_trace(trace: Dict, schema: Optional[Dict] = None) -> List[str]:
    """Schema check plus structural nesting checks; returns error strings."""
    if schema is None:
        schema = load_schema()
    errors = check(trace, schema)
    if errors:
        return errors

    # Structural checks per thread lane: complete events must carry ts/dur,
    # children must sit inside their parents, siblings must not overlap.
    # Async intervals and flow steps live outside the nesting discipline but
    # must carry correlation ids (and async begins need matching ends).
    by_lane: Dict[tuple, List[Dict]] = {}
    async_open: Dict[tuple, List[float]] = {}
    for index, event in enumerate(trace.get("traceEvents", [])):
        ph = event.get("ph")
        if ph in ("b", "e", "s", "t", "f"):
            if "id" not in event:
                errors.append(f"traceEvents[{index}]: {ph!r} event missing id")
                continue
            if ph in ("b", "e"):
                key = (event["pid"], event.get("cat"), event["name"], event["id"])
                if ph == "b":
                    async_open.setdefault(key, []).append(event.get("ts", 0))
                else:
                    starts = async_open.get(key)
                    if not starts:
                        errors.append(
                            f"traceEvents[{index}]: async end without begin "
                            f"for id {event['id']}")
                    elif event.get("ts", 0) < starts.pop():
                        errors.append(
                            f"traceEvents[{index}]: async end before its "
                            f"begin for id {event['id']}")
            continue
        if ph != "X":
            continue
        if "ts" not in event or "dur" not in event:
            errors.append(f"traceEvents[{index}]: complete event missing ts/dur")
            continue
        by_lane.setdefault((event["pid"], event.get("tid", 0)), []).append(event)
    for key, starts in async_open.items():
        if starts:
            errors.append(f"async begin without end for id {key[3]} "
                          f"(pid {key[0]}, name {key[2]!r})")

    for (pid, tid), events in by_lane.items():
        spans = {}
        for event in events:
            span_id = event.get("args", {}).get("span_id")
            if span_id is not None:
                spans[span_id] = event
        children: Dict[Optional[int], List[Dict]] = {}
        for event in events:
            args = event.get("args", {})
            parent_id = args.get("parent_id")
            parent = spans.get(parent_id)
            if parent is not None:
                start, end = event["ts"], event["ts"] + event["dur"]
                p_start, p_end = parent["ts"], parent["ts"] + parent["dur"]
                if start < p_start or end > p_end:
                    errors.append(
                        f"pid {pid}: span {event['name']!r} "
                        f"[{start},{end}] escapes parent {parent['name']!r} "
                        f"[{p_start},{p_end}]")
                children.setdefault(parent_id, []).append(event)
            else:
                # Parent evicted from the ring buffer (or a true root):
                # treat as a root for the sibling check.
                children.setdefault(None, []).append(event)
        for siblings in children.values():
            ordered = sorted(siblings, key=lambda e: (e["ts"], -(e["dur"])))
            for left, right in zip(ordered, ordered[1:]):
                if right["ts"] < left["ts"] + left["dur"] \
                        and right["ts"] + right["dur"] > left["ts"] + left["dur"]:
                    errors.append(
                        f"pid {pid}: sibling spans {left['name']!r} and "
                        f"{right['name']!r} overlap without nesting")
    return errors


def validate_trace_file(path: str, schema_path: Optional[str] = None) -> List[str]:
    """:func:`validate_trace` on the trace JSON file at *path*; returns error strings."""
    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    return validate_trace(trace, load_schema(schema_path))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or len(argv) > 2:
        print("usage: python -m repro.obs.schema trace.json [schema.json]",
              file=sys.stderr)
        return 2
    errors = validate_trace_file(argv[0], argv[1] if len(argv) == 2 else None)
    if errors:
        for error in errors:
            print(f"INVALID {error}")
        return 1
    with open(argv[0], "r", encoding="utf-8") as handle:
        count = sum(1 for e in json.load(handle)["traceEvents"]
                    if e.get("ph") == "X")
    print(f"ok: {argv[0]} valid ({count} spans)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
