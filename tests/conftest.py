"""Shared pytest plumbing: collect acceptance verdict lines and echo them
in the terminal summary so every criterion's pass/fail status is visible
even when its test passes (captured stdout is otherwise swallowed)."""

import functools

import pytest

from fracobs import native
from fracobs.fde import VectorField

ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rhs_flat(dyn):
    """``dyn.statements`` compiled alone as f(y, flat); a latch lives as long as f."""
    ns: dict = {}
    return VectorField.from_statements(dyn.dim, dyn.variant, ["y = t", *dyn.statements("y", 0, ns)], ns).eval


def _on_both(entry: str):
    """A decorator that runs a test as it is, then again with ``native.<entry>``
    monkeypatched to return None, so the Python form runs. The test keeps its
    name, and hypothesis runs both on every example."""
    def on_both(test):
        @functools.wraps(test)
        def both(*args, **kwargs):
            test(*args, **kwargs)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(native, entry, lambda *args: None)
                test(*args, **kwargs)
        return both
    return on_both


# both leaves of the march: the compiled one (where gcc and numpy's OpenBLAS
# are there), then the Python one
on_both_leaves = _on_both("make_leaf")
# both trace CSV writers: the compiled one (where gcc compiles C++17), then
# the Python row template
on_both_writers = _on_both("make_writer")
