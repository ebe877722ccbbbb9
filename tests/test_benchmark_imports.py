"""Every ``repro`` name the frozen benchmark imports still resolves.

``benchmarks/e2e`` is never edited alongside ``src/``, so a change that
deletes or renames a name it imports would break the benchmark without
failing any test of ``src/``.  This reads the benchmark's imports with
``ast`` (function-level imports included) and resolves each one.
"""

import ast
import importlib
import pathlib

import pytest

E2E = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _repro_imports() -> list[tuple[str, str, str | None]]:
    """``(file, module, name)`` per imported name; ``name`` None for ``import m``."""
    found = []
    for path in sorted(E2E.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module == "repro" or module.startswith("repro."):
                    found += [(path.name, module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name == "repro" or alias.name.startswith("repro.")
                ]
    return found


IMPORTS = _repro_imports()


def test_benchmark_imports_repro():
    assert len(IMPORTS) >= 20


@pytest.mark.parametrize(
    "source,module,name",
    IMPORTS,
    ids=[f"{f}:{m}:{n}" if n else f"{f}:{m}" for f, m, n in IMPORTS],
)
def test_name_resolves(source, module, name):
    imported = importlib.import_module(module)
    if name is None or hasattr(imported, name):
        return
    # ``from package import submodule`` needs no attribute on the package.
    importlib.import_module(f"{module}.{name}")
