"""Determinism audit: nothing under ``src/repro`` calls builtin ``hash()``.

``hash()`` of a ``str`` (or anything holding one) is salted per process,
so a seed, a shard choice or an iteration order derived from it changes
with ``PYTHONHASHSEED`` — ISSUE 18 found Fig. 6b seeding its pan cloud
that way.  Process-stable hashing is ``repro.dht.partitioner
._stable_hash``.  Like ``tests/test_config_audit.py`` this walks the
package's AST, so the rule holds for code no test executes.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def builtin_hash_calls(source: str, filename: str = "<source>") -> list[str]:
    """``file:line`` of every ``hash(...)`` call on the bare builtin name."""
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    ]


def test_no_module_calls_builtin_hash():
    calls = [
        call
        for path in sorted(SRC.rglob("*.py"))
        for call in builtin_hash_calls(
            path.read_text(encoding="utf-8"), str(path.relative_to(SRC))
        )
    ]
    assert calls == []


def test_audit_flags_a_hash_call():
    """The audit must bite — and leave ``_stable_hash`` / methods alone."""
    source = (
        "salt = hash(size.value) % 1000\n"
        "ok = _stable_hash(text) + obj.hash(1) + hashlib.blake2b(b'x').digest()[0]\n"
    )
    assert builtin_hash_calls(source, "m.py") == ["m.py:1"]
