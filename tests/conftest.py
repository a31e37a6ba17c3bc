"""Shared pytest plumbing: collect acceptance verdict lines and echo them
in the terminal summary so every criterion's pass/fail status is visible
even when its test passes (captured stdout is otherwise swallowed)."""

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
