#!/usr/bin/env python3
"""Compare two directories of simulated outputs outside wall-clock fields.

    compare_outputs.py DIR_A DIR_B [--allow FILE:KEY ...]

Every file name found in either directory must exist in both.  ``*.json``
files are compared as trees with the volatile keys dropped at any depth;
everything else is compared byte for byte.  ``--allow FILE:KEY`` drops one
top-level ``KEY`` of one JSON file on both sides before comparing: the
short list of differences a change makes on purpose.  Exit 1 with one line
per differing file.

Used by the ``determinism`` job (two hash seeds of one tree), the
``sim-identity`` job (one tree against its parent commit) and the
``committed-reports`` job (the committed reports against a fresh run).
"""

import argparse
import json
import pathlib
import sys

#: Keys whose values are wall-clock time or describe the build.
VOLATILE = {"meta", "wall_s", "synthesis_wall_s", "queries_per_s", "date", "git_rev"}


def stable(node):
    if isinstance(node, dict):
        return {k: stable(v) for k, v in node.items() if k not in VOLATILE}
    if isinstance(node, list):
        return [stable(v) for v in node]
    return node


def load(path: pathlib.Path, allowed: set[str]):
    if path.suffix != ".json":
        return path.read_bytes()
    tree = stable(json.loads(path.read_text()))
    return {k: v for k, v in tree.items() if k not in allowed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    parser.add_argument("--allow", action="append", default=[], metavar="FILE:KEY")
    args = parser.parse_args()
    allowed: dict[str, set[str]] = {}
    for entry in args.allow:
        name, _, key = entry.partition(":")
        allowed.setdefault(name, set()).add(key)
    names = sorted(
        {p.name for p in args.a.iterdir()} | {p.name for p in args.b.iterdir()}
    )
    differing = []
    for name in names:
        one, two = args.a / name, args.b / name
        dropped = allowed.get(name, set())
        if not (one.exists() and two.exists()):
            differing.append(f"{name}: present on one side only")
        elif load(one, dropped) != load(two, dropped):
            differing.append(f"{name}: differs")
    for line in differing:
        print(line, file=sys.stderr)
    if not differing:
        print(f"identical outside volatile fields: {len(names)} files")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
