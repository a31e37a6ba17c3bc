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


def on_both_leaves(test):
    """Run ``test`` on both leaves of the march: as it is (the compiled leaf,
    where gcc and numpy's OpenBLAS are there), then again with the native
    entry point monkeypatched to refuse every step (the Python leaf). The
    test keeps its name, and hypothesis runs both on every example."""
    @functools.wraps(test)
    def both(*args, **kwargs):
        test(*args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "make_leaf", lambda *step: None)
            test(*args, **kwargs)
    return both
