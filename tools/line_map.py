"""Which lines of the tracelet package run: a line-usage map.

    python3 tools/line_map.py

Run from anywhere; the package is imported from the checkout's ``src/``.
Under one ``sys.settrace`` line collector, in this process, it runs:

1. every set-up, derive, warm-up and pass command of the seed-1 and seed-2
   corpora of the benchmark's three workloads (``bench/corpus.py``),
   through ``tracelet.cli.main``;
2. ``tests/test_cli.py`` and ``tests/test_demos.py``, and the demo scripts
   themselves, which that test runs in child processes;
3. the rest of Tier-1 (``tests/``).

It prints, per module of ``src/tracelet``, its executable lines (those in
the line tables of the module's code objects) split three ways: reached
by steps 1-2, reached only by step 3, and reached by nothing; then, per
module, the numbers of the lines that only step 3 reaches and of those
that nothing reaches.  The first list is the line-level audit for
production code that only tests use.

The collector is installed before tracelet is imported, and again before
each test: a trace function that raises, as on a ``RecursionError``, is
switched off by the interpreter, so what the rest of that test runs is not
seen (``cli.main``'s ``RecursionError`` branch shows as unreached).  Under
tracing, Tier-1 takes several minutes, so this script is not part of it.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "tracelet")
TESTS = os.path.join(ROOT, "tests")
FRONT_TESTS = ("test_cli.py", "test_demos.py")
SEEDS = (1, 2)

# file name -> the lines reached so far; ``collect`` swaps the map in use
_front: dict = {}
_rest: dict = {}
_hits = _front


def _global(frame, event, arg):
    lines = _hits.get(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def collect(into: dict):
    """Record the lines run from now on into ``into`` (``_front`` or ``_rest``)."""
    global _hits
    _hits = into
    sys.settrace(_global)


def module_files() -> dict:
    """{module name: file path} of the package."""
    return {name[:-3]: os.path.join(PKG, name) for name in sorted(os.listdir(PKG))
            if name.endswith(".py")}


def executable_lines(path: str) -> set:
    """The line numbers in the line tables of path's code objects.  Line 0,
    where a module's code starts, holds no source and is left out."""
    with open(path, encoding="utf-8") as fh:
        todo, lines = [compile(fh.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_corpora(workdir: str) -> list:
    """Run the seed-1 and seed-2 corpora's commands through ``cli.main``
    with each corpus under workdir; returns (argv, exit code, stdout,
    stderr) per command, in order."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import corpus
    from tracelet import cli

    log = []

    def execute(cmd):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd.argv)
        log.append((cmd.argv, code, out.getvalue(), err.getvalue()))

    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            root = os.path.join(workdir, f"{workload}-{seed}")
            os.makedirs(root)
            built = corpus.build(workload, root, seed)
            for cmd in built.setup:
                execute(cmd)
            if built.derive:
                built.derive()
            for cmd in built.warmup + built.commands:
                execute(cmd)
    return log


class _Recollect:
    """A pytest plugin: before each test, the collector again, into the map
    of the test's file."""

    @staticmethod
    def pytest_runtest_setup(item):
        collect(_front if os.path.basename(str(item.fspath)) in FRONT_TESTS else _rest)

    pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup


def main() -> int:
    files = module_files()
    for path in files.values():
        _front[path], _rest[path] = set(), set()
    sys.path.insert(0, SRC)
    collect(_front)
    import tracelet.cli  # noqa: F401

    with tempfile.TemporaryDirectory() as workdir:
        commands = len(run_corpora(workdir))
    for demo in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if demo.endswith(".py"):
            collect(_front)
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(os.path.join(ROOT, "demos", demo), run_name="__main__")

    import pytest
    collect(_rest)
    with contextlib.redirect_stdout(io.StringIO()):
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                              "-c", os.path.join(ROOT, "pyproject.toml"), TESTS],
                             plugins=[_Recollect()])
    sys.settrace(None)

    print(f"{commands} corpus commands; Tier-1 exit status {int(status)}")
    print(f"{'module':<12}{'lines':>7}{'front':>7}{'tests':>7}{'none':>7}")
    totals = [0, 0, 0, 0]
    listed = []
    for module, path in files.items():
        lines = executable_lines(path)
        front = lines & _front[path]
        tests = (lines & _rest[path]) - front
        none = lines - front - tests
        listed += [(f"{module} tests only", tests), (f"{module} unreached", none)]
        row = [len(lines), len(front), len(tests), len(none)]
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{module:<12}" + "".join(f"{n:>7}" for n in row))
    print(f"{'total':<12}" + "".join(f"{n:>7}" for n in totals))
    for label, lines in listed:
        if lines:
            print(f"{label}: {' '.join(map(str, sorted(lines)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
