"""Line coverage of the Tier-1 suite over src/gaussqi, without a coverage package.

    python3 tools/linecov.py [PYTEST_ARG ...]

Runs Tier-1 (or the pytest arguments given, e.g. one test file) in a child
process with BLAS pinned to one thread and a `sys.settrace` tracer that
records every line of src/gaussqi that runs, then prints, per module, the
executable lines that never ran, as ranges.  The executable lines are the
line starts of the module's compiled code objects (`co_lines`), the lines
a 'line' trace event can name, so a line reached only through an exception
handler's cleanup may be listed although nothing can run it.  The tracer
makes Tier-1 about half again slower.  It uses the standard library only
and is not part of Tier-1.  Exit status: the suite's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gaussqi")

# Run in the child: trace the package's frames, run pytest, dump the lines seen.
CHILD = """
import json, sys, threading
package, dump, args = sys.argv[1], sys.argv[2], sys.argv[3:]
seen = set()

def local(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return local

def trace(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(package) else None

sys.settrace(trace)
threading.settrace(trace)
import pytest
status = pytest.main(args)
sys.settrace(None)
with open(dump, "w") as fh:
    json.dump(sorted(seen), fh)
sys.exit(int(status))
"""


def executable_lines(path: str) -> set[int]:
    """The line starts of every code object compiled from the module at `path`."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    args = args or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="linecov-") as work:
        dump = os.path.join(work, "lines.json")
        status = subprocess.run([sys.executable, "-c", CHILD, PACKAGE + os.sep, dump, *args],
                                cwd=ROOT, env=env).returncode
        if not os.path.exists(dump):
            print(f"the suite left no trace (exit {status})", file=sys.stderr)
            return status or 1
        with open(dump) as fh:
            seen = {(path, line) for path, line in json.load(fh)}
    print("\nnever ran, per module of src/gaussqi:")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        missed = sorted(line for line in lines if (path, line) not in seen)
        print(f"  {name}: {len(missed)} of {len(lines)}" + (f": {ranges(missed)}" if missed else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())
