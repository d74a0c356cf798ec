#!/usr/bin/env python3
"""Validate a JSON document against a draft-07 schema subset.

Standard library only (no jsonschema dependency in CI): supports the
keywords the silo-lint schemas actually use — type, const, enum,
pattern, minimum, required, properties, additionalProperties, items.
Anything else in a schema is an error, not silently ignored, so the
schemas cannot quietly outgrow the validator.

Usage: check_schema.py SCHEMA.json INSTANCE.json [INSTANCE.json ...]
Exit 0 when every instance validates, 1 on the first violation, 2 on
usage or file errors.
"""

import json
import re
import sys

KNOWN_KEYWORDS = {
    "$schema", "title", "description",          # annotations
    "type", "const", "enum", "pattern", "minimum",
    "required", "properties", "additionalProperties", "items",
}

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
}


class SchemaError(Exception):
    """The schema itself uses something this validator can't check."""


def check_type(value, expected, path):
    if expected == "integer":
        # bool is an int subclass in Python; JSON says it isn't.
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif expected == "number":
        ok = (isinstance(value, (int, float))
              and not isinstance(value, bool))
    else:
        py = TYPES.get(expected)
        if py is None:
            raise SchemaError(f"unknown type '{expected}' at {path}")
        ok = isinstance(value, py)
        if expected != "boolean" and isinstance(value, bool):
            ok = False
    if not ok:
        return [f"{path}: expected {expected}, "
                f"got {type(value).__name__}"]
    return []


def validate(value, schema, path="$"):
    """Return a list of violation strings (empty when valid)."""
    unknown = set(schema) - KNOWN_KEYWORDS
    if unknown:
        raise SchemaError(
            f"schema at {path} uses unsupported keyword(s): "
            f"{', '.join(sorted(unknown))}")

    errors = []
    if "type" in schema:
        errors += check_type(value, schema["type"], path)
        if errors:
            return errors   # shape is wrong; nested checks are noise
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected constant "
                      f"{schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']!r}")
    if "pattern" in schema and isinstance(value, str):
        if not re.search(schema["pattern"], value):
            errors.append(f"{path}: {value!r} does not match "
                          f"/{schema['pattern']}/")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum "
                          f"{schema['minimum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required "
                              f"property '{key}'")
        for key, sub in props.items():
            if key in value:
                errors += validate(value[key], sub, f"{path}.{key}")
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    errors.append(f"{path}: unexpected "
                                  f"property '{key}'")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors += validate(item, schema["items"], f"{path}[{i}]")
    return errors


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1], encoding="utf-8") as fh:
            schema = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"check_schema: cannot load schema {argv[1]}: {exc}",
              file=sys.stderr)
        return 2
    status = 0
    for instance_path in argv[2:]:
        try:
            with open(instance_path, encoding="utf-8") as fh:
                instance = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"check_schema: cannot load {instance_path}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            violations = validate(instance, schema)
        except SchemaError as exc:
            print(f"check_schema: bad schema: {exc}", file=sys.stderr)
            return 2
        if violations:
            status = 1
            for v in violations:
                print(f"{instance_path}: {v}")
        else:
            print(f"{instance_path}: OK "
                  f"({argv[1].rsplit('/', 1)[-1]})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
