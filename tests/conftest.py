"""Shared fixtures and the acceptance-criteria terminal summary."""

import sys

import pytest

# One line per criterion is printed after the run, PASS/FAIL/NOT RUN.
CRITERIA = {
    1: "25-run one-generator shift table",
    2: "49-run closed-form shift and full shift scan",
    3: "recursive-design count table",
    4: "25-run and 49-run family comparison tables",
    5: "49-run linear-family zero-shift set",
    6: "full 7^6 shift scan, unique winner",
    7: "17-level two-zero counterexample",
    8: "second-order model diagnostics",
    9: "structural property sweeps",
}

_results = {}


def record_criterion(num: int, ok: bool, detail: str = ""):
    _results[num] = (bool(ok), detail)


@pytest.fixture
def acceptance():
    """Recorder: call acceptance(num, ok, detail) before asserting."""
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num in _results:
            ok, detail = _results[num]
            verdict = "PASS" if ok else "FAIL"
        else:
            verdict, detail = "NOT RUN", ""
        line = f"criterion {num}: {verdict:7s} {CRITERIA[num]}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture
def budget(monkeypatch):
    """budget(nbytes) sets the one memory budget, fieldmath._CHUNK_BYTES, for the test.

    It returns a list that records every later chunks call of the kernels as
    (module, calling function, count, slice lengths), so a test can check
    that the budget it sets reaches the loop it means to cut.
    """
    from wtdesigns import aberration, fieldmath, optimal, recursion

    calls = []
    for module in (aberration, optimal, recursion):

        def spy(count, item_bytes, name=module.__name__.rsplit(".", 1)[1]):
            out = fieldmath.chunks(count, item_bytes)
            caller = sys._getframe(1).f_code.co_name
            calls.append((name, caller, count, [s.stop - s.start for s in out]))
            return out

        monkeypatch.setattr(module, "chunks", spy)

    def set_budget(nbytes):
        monkeypatch.setattr(fieldmath, "_CHUNK_BYTES", nbytes)
        calls.clear()
        return calls

    return set_budget
