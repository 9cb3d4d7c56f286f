"""List the functions in src/sendwhen that no command of the byte-identity recipe enters.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/unreached.py

It runs recipe_digests.run (every command the digest recipe runs, in a
temporary directory) with a temporary sitecustomize first on PYTHONPATH.
That module installs a sys.settrace tracer in each child interpreter, which
notes every code object of src/sendwhen that starts a frame and writes them
out at exit.  A function counts as entered when its code object started a
frame.  Each function that none did is printed as "lines  path:line
qualname", with its lines counted from its first decorator to its last
line, and then the total, which counts a nested function's lines once.
The tracer changes no output, so the digests are the recipe's own; they
are not printed.

This file is not collected by pytest (its name does not start with test_).
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from pathlib import Path

import recipe_digests

SRC = Path(__file__).resolve().parent.parent / "src" / "sendwhen"

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_src, _out = os.environ["UNREACHED_SRC"], os.environ["UNREACHED_OUT"]
_seen = set()


def _trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_src):
        _seen.add((code.co_filename, code.co_firstlineno))
    # no local tracer: only the start of each frame is seen


def _dump():
    sys.settrace(None)
    with open(os.path.join(_out, f"{os.getpid()}.txt"), "w", encoding="utf-8") as f:
        f.writelines(f"{line} {path}\\n" for path, line in _seen)


sys.settrace(_trace)
threading.settrace(_trace)
atexit.register(_dump)
'''


def functions(path: Path) -> list[tuple[int, int, str, int | None]]:
    """(first line, line count, qualname, enclosing function's first line) of each function."""
    found = []

    def visit(node: ast.AST, prefix: str, outer: int | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((first, child.end_lineno - first + 1, prefix + child.name, outer))
                visit(child, f"{prefix}{child.name}.", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", outer)
            else:
                visit(child, prefix, outer)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


def entered(out: Path) -> set[tuple[str, int]]:
    seen = set()
    for dump in out.iterdir():
        for record in dump.read_text(encoding="utf-8").splitlines():
            line, path = record.split(" ", 1)
            seen.add((path, int(line)))
    return seen


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site, out, work = Path(tmp, "site"), Path(tmp, "out"), Path(tmp, "work")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        paths = [str(site), str(SRC.parent), os.environ.get("PYTHONPATH", "")]
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        os.environ["UNREACHED_SRC"] = str(SRC) + os.sep
        os.environ["UNREACHED_OUT"] = str(out)
        recipe_digests.run(work)
        seen = entered(out)
    total = 0
    root = SRC.parent.parent
    for path in sorted(SRC.glob("*.py")):
        for first, n, name, outer in functions(path):
            if (str(path), first) not in seen:
                print(f"{n:4d}  {path.relative_to(root).as_posix()}:{first} {name}")
                # a function inside one that never ran is already counted in it
                total += n if outer is None or (str(path), outer) in seen else 0
    print(f"{total:4d}  lines in functions that no command entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
