"""Smoke tests: the example scripts run to completion.

Each example is a user-facing artifact; a refactor that breaks one
should fail the suite, not a reader.  Only the two fastest examples run
here (the rest are exercised indirectly by the same APIs); each runs in
a subprocess exactly as a user would invoke it.
"""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "cold query" in out
        assert "hot query latency" in out
        assert "faster" in out

    def test_streaming_updates(self):
        out = run_example("streaming_updates.py")
        assert "baseline" in out
        assert "wave 3" in out
        assert "0 cells recomputed" in out  # far region kept its cache

    def test_all_examples_importable(self):
        """Every example at least parses and resolves its imports."""
        import ast

        for path in sorted(EXAMPLES.glob("*.py")):
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
            assert any(
                isinstance(node, ast.FunctionDef) and node.name == "main"
                for node in tree.body
            ), f"{path.name} has no main()"
