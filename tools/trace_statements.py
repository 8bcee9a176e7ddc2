"""List every statement of ``src/ensynth`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace`` and prints each
statement that no line event reached, as ``path:line: text``.  A statement
counts as reached when any line of its own (for a compound statement, its
header; for a simple one, all of its lines) ran.  Docstrings and ``global``
statements compile to no code and are not counted.

Usage, from the repository root::

    python tools/trace_statements.py

It always runs the whole of ``tests/``: a subset leaves statements
unreached that the rest of the suite reaches.

It writes nothing into the repository: bytecode caching and pytest's cache
are off, and Hypothesis keeps its database in a temporary directory.  Exit
status: pytest's, if the tests failed; else 1 if a statement outside
``ALLOWED`` was not reached or an ``ALLOWED`` entry no longer names an
unreached statement; else 0.  Code the tests run in a subprocess is not
seen, so it must also be reached in-process.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ensynth"

PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "tests"]

# (file, first line of the statement, stripped) -> why no test can reach it.
ALLOWED = {
    ("cli.py", "main()"): (
        "the body of the __main__ guard runs only when cli.py is the script;"
        " tests run it in a subprocess, which is not traced, and call main()"
    ),
}


_DOCSTRING_HOLDERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(path: Path) -> list[tuple[int, set[int], str]]:
    """(line, own lines, first source line) of each executable statement,
    in line order."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    docstrings = {
        id(node.body[0]) for node in nodes
        if isinstance(node, _DOCSTRING_HOLDERS) and ast.get_docstring(node, clean=False)
    }
    found = []
    for node in nodes:
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found.append((node.lineno, set(range(first, max(first, last) + 1)),
                      lines[node.lineno - 1].strip()))
    found.sort(key=lambda item: item[0])
    return found


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.dont_write_bytecode = True
    os.chdir(ROOT)
    import pytest

    with tempfile.TemporaryDirectory(prefix="trace-hypothesis-") as store:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = store
        sys.settrace(calls)
        try:
            status = pytest.main(PYTEST_ARGS)
        finally:
            sys.settrace(None)
    if status != 0:
        return int(status)

    unreached, total, allowed_seen = [], 0, set()
    for name, path in files.items():
        for line, own, text in statements(path):
            total += 1
            if own & hits[name]:
                continue
            key = (path.name, text)
            if key in ALLOWED:
                allowed_seen.add(key)
            else:
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    for entry in unreached:
        print(entry)
    stale = sorted(ALLOWED.keys() - allowed_seen)
    for file, text in stale:
        print(f"allow-list entry reached or gone: {file}: {text}")
    print(f"{total} statements, {len(unreached)} unreached outside the allow-list "
          f"({len(allowed_seen)} allowed)")
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
