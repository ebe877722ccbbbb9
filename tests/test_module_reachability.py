"""Every module under ``src/repro`` is imported by something production runs.

A module that only tests import is a test helper living in the package:
it belongs under ``tests/``.  This computes, with ``ast`` alone, the
import closure of the entry points (``repro.cli``, ``repro.__main__``,
the ``benchmarks/e2e`` scripts and the ``examples``), function-level
imports included, and asserts that it covers the whole package.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRIPTS = sorted((ROOT / "benchmarks" / "e2e").glob("*.py")) + sorted(
    (ROOT / "examples").glob("*.py")
)


def _module_path(name: str) -> pathlib.Path | None:
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def _imports(path: pathlib.Path, package: str | None) -> set[str]:
    """Every dotted name ``path`` imports, and ``X.Y`` for each ``from X import Y``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                module = ".".join(parts + ([module] if module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def import_closure() -> set[str]:
    """Modules of ``repro`` reachable from the entry points."""
    pending = {"repro.cli", "repro.__main__"}
    for script in SCRIPTS:
        pending |= _imports(script, None)
    seen: set[str] = set()
    while pending:
        name = pending.pop()
        if name in seen or not (name == "repro" or name.startswith("repro.")):
            continue
        path = _module_path(name)
        if path is None:
            continue  # a name inside a module, not a module
        seen.add(name)
        parts = name.split(".")
        pending.update(".".join(parts[:i]) for i in range(1, len(parts)))
        package = name if path.name == "__init__.py" else ".".join(parts[:-1])
        pending |= _imports(path, package)
    return seen


def package_modules() -> set[str]:
    modules = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules.add(".".join(parts))
    return modules


def test_the_closure_reaches_into_the_package():
    closure = import_closure()
    assert {"repro.cli", "repro.core.graph", "repro.serve.http"} <= closure


def test_no_module_only_tests_import():
    unreached = sorted(package_modules() - import_closure())
    assert unreached == [], f"only tests import {unreached}: move them to tests/"
