"""Knob audit: every config field must be read somewhere in ``src/repro``.

A field of a ``repro.config`` dataclass that no code ever reads as an
attribute is a dead knob — documented, settable, and without effect
(ISSUE 14 deleted four of them plus ``columnar_scan``).  This test keeps
them from coming back: it collects every attribute *load* in the
package (``x.name`` in an expression, including inside ``config.py``'s
own methods) and requires each field name to appear among them.  The
match is by name, not by type, so it can miss a dead field that shares
its name with a live attribute elsewhere; it cannot flag a live one.
"""

import ast
import dataclasses
from pathlib import Path

import repro
import repro.config

SRC = Path(repro.__file__).parent


def attribute_loads(root: Path) -> set[str]:
    """Every attribute name read (``ast.Load``) in any module under ``root``."""
    names: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def config_dataclasses(module=repro.config) -> list[type]:
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    ]


def unread_fields(classes: list[type], loads: set[str]) -> list[str]:
    return [
        f"{cls.__name__}.{field.name}"
        for cls in classes
        for field in dataclasses.fields(cls)
        if field.name not in loads
    ]


def test_every_config_field_is_read_somewhere():
    classes = config_dataclasses()
    assert len(classes) == 12
    assert unread_fields(classes, attribute_loads(SRC)) == []


def test_audit_flags_an_unread_field():
    """The audit must bite: a knob nothing reads is reported by name."""

    @dataclasses.dataclass(frozen=True)
    class WithDeadKnob:
        max_cells: int = 1  # read by the eviction policy
        zz_knob_that_nothing_reads: bool = False

    assert unread_fields([WithDeadKnob], attribute_loads(SRC)) == [
        "WithDeadKnob.zz_knob_that_nothing_reads"
    ]


def test_config_surface_is_counted():
    """72 fields (75 before gossip fanout/handoff and the backoff multiplier
    left the config, 90 at the start); adding one is a reviewed act."""
    total = sum(len(dataclasses.fields(cls)) for cls in config_dataclasses())
    assert total == 72
