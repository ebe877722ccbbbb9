"""Every code name the prose docs put in backticks names something that exists.

A backticked span in ``README.md``, ``DESIGN.md`` or ``docs/*.md`` is
checked when it is a dotted name (``StashGraph.touch_batch``), a call
(``query_ring(query, owns)``) or a snake_case identifier
(``plan_query``).  Each dotted component must occur as an identifier in
a Python file, or as a file or directory name, under ``src/``,
``tests/``, ``benchmarks/``, ``examples/`` or ``.github/scripts/``.
Fenced code blocks are not prose and are skipped.  Text under a heading
that marks it historical ("Dead ends", "Removed") is exempt until the
next heading of the same or a higher level, and so are the CPython,
numpy and libc internals in :data:`EXTERNAL`.  Deleted code is named in
plain words, or under such a heading, not in backticks.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CODE_DIRS = ("src", "tests", "benchmarks", "examples", ".github/scripts")

#: Names from outside the repository that the docs measure against.
EXTERNAL = {
    "_clock_resolution",  # asyncio.BaseEventLoop
    "_debugmallocstats",  # sys
    "call_at",  # asyncio event loop
    "end_headers",  # http.server.BaseHTTPRequestHandler
    "epoll_wait",  # Linux system call
    "getsizeof",  # sys
    "lexsort",  # numpy
    "malloc_trim",  # glibc
    "send_header",  # http.server.BaseHTTPRequestHandler
    "send_response",  # http.server.BaseHTTPRequestHandler
}

NAME = re.compile(
    r"^(?P<name>[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+|_?[a-z]\w*_\w*|[A-Za-z_][\w.]*(?=\())"
    r"(?:\(.*\))?$"
)
HEADING = re.compile(r"^(#+)\s+(.*)")
HISTORICAL = re.compile(r"dead ends?|removed", re.IGNORECASE)


def known_names() -> set[str]:
    names = set(EXTERNAL)
    for directory in CODE_DIRS:
        for path in (ROOT / directory).rglob("*"):
            names.update((path.name, path.stem))
            if path.suffix == ".py":
                names.update(re.findall(r"[A-Za-z_]\w*", path.read_text(errors="replace")))
    return names


def doc_names(path: pathlib.Path):
    """``(line number, span, dotted name)`` of each checked span."""
    fenced = False
    exempt_level = None
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        heading = HEADING.match(line)
        if heading:
            level = len(heading.group(1))
            if exempt_level is not None and level <= exempt_level:
                exempt_level = None
            if exempt_level is None and HISTORICAL.search(heading.group(2)):
                exempt_level = level
            continue
        if exempt_level is not None:
            continue
        for span in re.findall(r"`([^`]+)`", line):
            match = NAME.match(span)
            if match:
                yield number, span, match.group("name")


def unresolved(paths, names: set[str]) -> list[str]:
    return [
        f"{path.name}:{number}: `{span}`"
        for path in paths
        for number, span, name in doc_names(path)
        if any(part not in names for part in name.split("."))
    ]


DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]


@pytest.fixture(scope="module")
def names():
    return known_names()


def test_every_backticked_code_name_resolves(names):
    assert unresolved(DOCS, names) == []


def test_an_invented_name_fails_outside_a_historical_section(names, tmp_path):
    invented = "touch_" + "everything_twice"  # split: this file is in the corpus
    doc = tmp_path / "doc.md"
    doc.write_text(
        "# Page\n\n"
        f"Calls `{invented}` and `StashGraph.{invented}()`.\n\n"
        "```\nshell `" + invented + "` in a fence\n```\n\n"
        "## Dead ends\n\n"
        f"`{invented}` was tried.\n\n"
        "### Detail\n\n"
        f"`{invented}` still historical.\n\n"
        "## Current\n\n"
        f"`{invented}` again, `sys.getsizeof`, `plan_query`.\n"
    )
    problems = [line.split(": ", 1)[1] for line in unresolved([doc], names)]
    assert problems == [
        f"`{invented}`",
        f"`StashGraph.{invented}()`",
        f"`{invented}`",
    ]
