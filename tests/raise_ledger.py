"""Raise ledger: every `raise` in `src/pamr` that Tier-1 never runs.

    python tests/raise_ledger.py            # run Tier-1 traced, list the unreached raises
    python tests/raise_ledger.py -k config  # extra arguments go to pytest

Tier-1 runs in a copy of the repository whose `src` holds a `sitecustomize`
that line-traces `pamr` (`sys.settrace` and `threading.settrace`). Python
loads it in every process that has `src` on its path, so test subprocesses
and pool workers are traced too. Each process appends the lines it runs to a
ledger of its own, one file per pid: a shared file would keep only what its
last writer saw. The union of the ledgers is set against every `raise` that
`ast` finds in `src/pamr`, and each one never reached prints as `file:line`.
If the union of a full run misses the line where a pool worker runs its
job, the workers went untraced and the list is wrong: the script says so
and exits 2.

Standard library only; pytest does not collect this file. A traced Tier-1
takes about twice as long as an untraced one.
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SITECUSTOMIZE = """\
import os
import sys
import threading

_PREFIX, _LEDGERS = {prefix!r}, {ledgers!r}
_seen = set()
_ledger = [None, None]  # pid, fd: a forked child opens its own


def _line(frame, event, arg):
    if event == "line":
        key = (frame.f_code.co_filename, frame.f_lineno)
        if key not in _seen:
            _seen.add(key)
            if _ledger[0] != os.getpid():
                path = os.path.join(_LEDGERS, str(os.getpid()))
                _ledger[:] = [os.getpid(), os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)]
            os.write(_ledger[1], ("%s:%d\\n" % key).encode())
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_PREFIX) else None


sys.settrace(_call)
threading.settrace(_call)
"""


def raise_lines(package: Path) -> dict[str, list[range]]:
    """Per module file name, the line span of each of its `raise` statements."""
    return {
        path.name: sorted(
            (range(node.lineno, node.end_lineno + 1)
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Raise)),
            key=lambda span: span.start,
        )
        for path in sorted(package.glob("*.py"))
    }


def worker_reply_line(pool_py: Path) -> int:
    """The line of `pool._serve` that runs a job: only a pool worker runs it."""
    serve = next(
        node for node in ast.walk(ast.parse(pool_py.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_serve"
    )
    return next(
        node.lineno for node in ast.walk(serve)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["reply"]
    )


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="raise-ledger-") as tmp:
        copy, ledgers = Path(tmp) / "repo", Path(tmp) / "ledgers"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".*cache", ".hypothesis", ".perfbench_out")
        shutil.copytree(ROOT, copy, ignore=skip)
        ledgers.mkdir()
        package = copy / "src" / "pamr"
        (copy / "src" / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(prefix=str(package) + os.sep, ledgers=str(ledgers))
        )
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        tier1 = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             *pytest_args], cwd=copy, env=env,
        ).returncode
        ran: set[tuple[str, int]] = set()
        for ledger in ledgers.iterdir():
            for entry in ledger.read_text().splitlines():
                name, _, line = entry.rpartition(":")
                ran.add((Path(name).name, int(line)))

    if not pytest_args and ("pool.py", worker_reply_line(ROOT / "src" / "pamr" / "pool.py")) not in ran:
        print("error: no ledger holds a pool worker's lines; the workers went untraced", file=sys.stderr)
        return 2
    spans = raise_lines(ROOT / "src" / "pamr")
    unreached = [
        f"src/pamr/{name}:{span.start}"
        for name, file_spans in spans.items()
        for span in file_spans
        if not any((name, line) in ran for line in span)
    ]
    print("\n".join(unreached))
    print(f"{len(unreached)} of {sum(map(len, spans.values()))} raise statements in src/pamr never ran")
    if tier1 != 0:
        print(f"error: Tier-1 exited {tier1}, so the ledger may miss lines", file=sys.stderr)
    return tier1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
