"""pytest plugin: fail the session if a statement inside a src/hotspot function never ran.

Standard library only (sys.settrace). Load it for a whole-suite run:

    PYTHONPATH=src python -m pytest -q -p tests.statement_coverage

A partial run reports every statement its tests do not reach.
A statement counts if it sits in the body of a function or method of a
``src/hotspot`` module and the compiler gave its first line bytecode (a
docstring has none). Module and class bodies run at import, so they are not
listed. The session fails, naming each statement as file:line, when any is
left unrun.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hotspot"


def _code_lines(code) -> set[int]:
    """The lines that ``code`` and the code objects nested in it have bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def function_statements(path: Path) -> set[int]:
    """The first lines of the statements inside the functions of the module at ``path``."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    statements = {node.lineno for func in ast.walk(tree)
                  if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for body_stmt in func.body for node in ast.walk(body_stmt)
                  if isinstance(node, ast.stmt)}
    return statements & _code_lines(compile(source, str(path), "exec"))


_ran: set[tuple[str, int]] = set()  # (module file name, line) of each line run
_in_package: dict[str, str | None] = {}  # code file name -> module file name, if a package one
_unrun: list[str] = []  # file:line of each statement left unrun, found at session end


def _local_trace(frame, event, arg):
    if event == "line":
        _ran.add((_in_package[frame.f_code.co_filename], frame.f_lineno))
    return _local_trace


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _in_package:
        path = Path(filename).resolve()
        _in_package[filename] = path.name if path.parent == PACKAGE else None
    return _local_trace if _in_package[filename] else None


def pytest_configure(config):
    sys.settrace(_trace_calls)


def unrun_statements() -> list[str]:
    """file:line of every statement inside a package function that no traced call ran."""
    return [f"src/hotspot/{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
            for line in sorted(function_statements(path))
            if (path.name, line) not in _ran]


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    _unrun[:] = unrun_statements()
    if _unrun and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.write_sep("-", f"{len(_unrun)} statement(s) in src/hotspot functions "
                                    "that no test ran")
    for where in _unrun:
        terminalreporter.write_line(where)
