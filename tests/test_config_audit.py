"""Knob audit: every config field is read, and set by a caller or kept for a reason.

A field of a ``repro.config`` dataclass that no code ever reads as an
attribute is a dead knob — documented, settable, and without effect.
This test keeps them from coming back: it collects every attribute
*load* in the package (``x.name`` in an expression, including inside
``config.py``'s own methods) and requires each field name to appear
among them.

A field that is read but that no caller ever sets is a constant in
disguise.  The second audit collects every name a program file *sets*:
a keyword argument of any call (``Cls(name=…)``, ``.with_(name=…)``,
``replace(…, name=…)``) or a string key (``{"name": …}``,
``overrides["name"] = …``) anywhere under ``src/`` (except
``config.py``), ``benchmarks/`` and ``examples/``.  Tests do not count:
a test's need is not a second caller.  A field nothing sets must be on
:data:`KEPT` with its reason.

Both matches are by name, not by type, so they can miss a field that
shares its name with an unrelated attribute or keyword; they cannot flag
a field that is read or set.
"""

import ast
import dataclasses
from pathlib import Path

import repro
import repro.config

SRC = Path(repro.__file__).parent
REPO = Path(__file__).resolve().parents[1]
CALLERS = (REPO / "src", REPO / "benchmarks", REPO / "examples")

#: Fields no caller sets that stay configurable, each with its reason.
KEPT: dict[str, str] = {
    **{
        f"CostModel.{name}": "the simulated hardware; calibrated as a whole (DESIGN.md §2, §5)"
        for name in (
            "network_latency",
            "network_bandwidth",
            "disk_seek",
            "disk_bandwidth",
            "data_scale",
            "scan_cost_per_record",
            "cell_lookup_cost",
            "cell_merge_cost",
            "cell_insert_cost",
            "request_overhead",
            "cell_wire_size",
        )
    },
    "StashConfig.cost": "the bundle's slot for the CostModel above",
    "ReplicationConfig.clique_depth": "the paper's clique depth",
    "ReplicationConfig.top_k_cliques": "the paper's K",
    "ReplicationConfig.max_replicated_cells": "the paper's N",
    "ElasticConfig.page_cache_blocks": "a calibration decision (DESIGN.md §5)",
    "ClusterConfig.partition_precision": "a calibration decision (DESIGN.md §5)",
    "ServeConfig.host": "a deployment address",
    "ServeConfig.http_host": "a deployment address",
}


def attribute_loads(root: Path) -> set[str]:
    """Every attribute name read (``ast.Load``) in any module under ``root``."""
    names: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def written_names(node: ast.AST) -> list[str]:
    """Names ``node`` sets: call keywords, or constant string keys."""
    if isinstance(node, ast.Call):
        return [keyword.arg for keyword in node.keywords if keyword.arg]
    if isinstance(node, ast.Dict):
        keys = node.keys
    elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        keys = [node.slice]
    else:
        return []
    return [
        key.value
        for key in keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    ]


def set_names(roots: tuple[Path, ...]) -> set[str]:
    """Every name set in any module under ``roots`` except ``config.py``."""
    names: set[str] = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path != REPO / "src" / "repro" / "config.py":
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    names.update(written_names(node))
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


def unset_fields(classes: list[type], sets: set[str]) -> list[str]:
    """Fields nothing sets and :data:`KEPT` gives no reason for."""
    return [name for name in unread_fields(classes, sets) if name not in KEPT]


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


def test_every_config_field_is_set_somewhere_or_kept():
    """With one value in use, a field is a module constant beside its reader."""
    assert unset_fields(config_dataclasses(), set_names(CALLERS)) == []


def test_kept_names_real_fields():
    fields = {
        f"{cls.__name__}.{field.name}"
        for cls in config_dataclasses()
        for field in dataclasses.fields(cls)
    }
    assert set(KEPT) - fields == set()


def test_setter_audit_flags_an_unset_field():
    """The audit must bite: a knob no caller sets is reported by name."""

    @dataclasses.dataclass(frozen=True)
    class WithFixedKnob:
        max_cells: int = 1  # set by the eviction-pressure conformance axis
        zz_knob_that_nothing_sets: bool = False

    assert unset_fields([WithFixedKnob], set_names(CALLERS)) == [
        "WithFixedKnob.zz_knob_that_nothing_sets"
    ]


def test_config_surface_is_counted():
    """64 fields (72 before eight one-value fields became module constants,
    90 at the start); adding one is a reviewed act."""
    total = sum(len(dataclasses.fields(cls)) for cls in config_dataclasses())
    assert total == 64
