"""Shared fixtures: the paper's example graphs and dual-mode runners.

Also hosts the tier-1 **coverage floor**: the environment ships no
pytest-cov, so a minimal ``sys.settrace`` line tracer (below) watches
``src/repro/planner`` and ``src/repro/semantics`` during the run and
fails the session if either package drops under 85% line coverage.  The
tracer disables itself per code object the moment that object is fully
covered, so the steady-state overhead on a hot suite is one dict lookup
per function call — and it **retires** whole targets: a floor is a "≥"
check and covered lines only accumulate, so a target that has met its
floor stays met.  Every ``RETIRE_EVERY`` tests the targets' percentages
are recomputed, every code object that belongs only to targets at or
over their floor stops being traced (a function with one never-covered
line would otherwise keep its per-line tracer for the whole run), and
once every target is there ``sys.settrace(None)`` ends tracing.  The
report then says "≥ N% (floor met after K tests)" for a retired target
and the exact figure for the rest (``REPRO_COVERAGE_DETAIL`` keeps
every target traced to the end, so its missing-line lists are exact).
The floor is only enforced on green, full-suite
runs (partial ``-k``/single-file invocations measure meaningless
subsets); set ``REPRO_COVERAGE=0`` to disable tracing entirely or
``REPRO_COVERAGE=force`` to enforce the floor regardless of selection
size.
"""

from __future__ import annotations

import functools
import os
import sys
import types

import pytest

from repro.datasets.paper import figure1_graph, figure4_graph, self_loop_graph

from fuzztools import run_both

# ---------------------------------------------------------------------------
# Coverage floor (tier-1 config; see module docstring)
# ---------------------------------------------------------------------------

COVERAGE_FLOOR = 85.0
#: Targets held to more than the common floor, at their measured value.
COVERAGE_FLOORS = {"src/repro/graph/snapshot.py": 95.0}
#: Enforce only when at least this many tests were collected (a full run).
COVERAGE_MIN_ITEMS = 800
#: Tests between two looks at which targets have met their floor (a
#: property-based test, being slow, is always followed by a look).
RETIRE_EVERY = 50
#: Modules whose property-based tests a floor leans on (``snapshot.py``
#: reaches its 95% through the writer-script views): they run before the
#: other property-based tests.  A stale entry only costs time.
FLOOR_BEARING = ("tests/test_snapshot_views.py",)


def _covered_packages():
    """Coverage targets: package directories or single files.

    ``graph/store.py`` joined the floor with the property-index
    subsystem (PR 5): its incremental maintenance hooks run on every
    mutation path, so untested store lines are untested write paths.
    ``runtime/`` joined with transactional sessions (PR 6): the session
    state machine, cancellation polling and admission gate are exactly
    the kind of branchy control code that rots silently.  A new module
    under these roots is under the floor automatically, which is the
    point of tracing directories rather than files.
    ``graph/reachability.py`` joined with the
    reachability indexes (PR 8): its condensation maintenance runs on
    every relationship mutation, same argument as ``store.py``.
    ``datasets/`` and ``graph/ingest.py`` joined with the macro
    workload (PR 9): the generator seeds every macro differential and
    the ingest path owns the deferred-index failure contract, so
    untested lines there are untested rollback paths.
    ``graph/statistics.py`` and ``planner/access.py`` joined with
    composite indexes and histogram statistics (PR 10): the histogram
    estimators silently degrade to flat guesses on untested branches,
    and access-path matching decides every index-vs-scan choice — the
    per-file floor is sharper than the planner package aggregate it
    also sits under.
    ``graph/snapshot.py`` joined with the delta-corrected snapshot view
    (PR 13): every read of a dirty pin — index probes included — goes
    through it, and an untested correction branch is a silent isolation
    bug; it is held to its measured coverage (``COVERAGE_FLOORS``).
    """
    import repro.datasets
    import repro.graph.ingest
    import repro.graph.reachability
    import repro.graph.snapshot
    import repro.graph.statistics
    import repro.graph.store
    import repro.planner
    import repro.planner.access
    import repro.runtime
    import repro.semantics

    return {
        "src/repro/planner": os.path.dirname(
            os.path.abspath(repro.planner.__file__)
        ),
        "src/repro/runtime": os.path.dirname(
            os.path.abspath(repro.runtime.__file__)
        ),
        "src/repro/semantics": os.path.dirname(
            os.path.abspath(repro.semantics.__file__)
        ),
        "src/repro/datasets": os.path.dirname(
            os.path.abspath(repro.datasets.__file__)
        ),
        "src/repro/graph/store.py": os.path.abspath(
            repro.graph.store.__file__
        ),
        "src/repro/graph/reachability.py": os.path.abspath(
            repro.graph.reachability.__file__
        ),
        "src/repro/graph/ingest.py": os.path.abspath(
            repro.graph.ingest.__file__
        ),
        "src/repro/graph/snapshot.py": os.path.abspath(
            repro.graph.snapshot.__file__
        ),
        "src/repro/graph/statistics.py": os.path.abspath(
            repro.graph.statistics.__file__
        ),
        "src/repro/planner/access.py": os.path.abspath(
            repro.planner.access.__file__
        ),
    }


class _LineTracer:
    """Line coverage over a directory allowlist, self-pruning per code.

    ``_watch`` maps each code object to its still-uncovered line set;
    once empty the entry flips to ``False`` and neither the global
    dispatch nor the local tracer touches that code again.  ``retired``
    maps a target's label to the number of tests after which it met its
    floor; its code objects flip to ``False`` the same way.
    """

    def __init__(self, targets):
        self.targets = dict(targets)  # label -> directory or file
        self.retired = {}
        self.tests_run = 0
        self._watch = {}
        self.executed = {}  # filename -> set of executed line numbers
        self._set_active()

    def _set_active(self):
        active = [
            target for label, target in self.targets.items()
            if label not in self.retired
        ]
        self._prefixes = tuple(
            target.rstrip(os.sep) + os.sep
            for target in active
            if not target.endswith(".py")
        )
        self._files = frozenset(
            target for target in active if target.endswith(".py")
        )

    def _watches(self, filename):
        return filename.startswith(self._prefixes) or filename in self._files

    def retire_met(self):
        """Stop tracing what only met floors need; True when all are met."""
        for label, target in self.targets.items():
            if label not in self.retired and (
                _package_coverage(self, target)[0] >= _floor_of(label)
            ):
                self.retired[label] = self.tests_run
        self._set_active()
        # A copy: the calls made here are themselves dispatched.
        for code, remaining in list(self._watch.items()):
            if remaining and not self._watches(code.co_filename):
                self._watch[code] = False
        return len(self.retired) == len(self.targets)

    def _lines_of(self, code):
        return {
            line for _start, _end, line in code.co_lines() if line is not None
        }

    def dispatch(self, frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        remaining = self._watch.get(code, Ellipsis)
        if remaining is Ellipsis:
            filename = code.co_filename
            if self._watches(filename):
                remaining = self._lines_of(code)
                self.executed.setdefault(filename, set())
            else:
                remaining = False
            self._watch[code] = remaining
        if not remaining:
            return None
        return self._line

    def _line(self, frame, event, arg):
        code = frame.f_code
        remaining = self._watch.get(code)
        if not remaining:
            return None
        if event == "line":
            line = frame.f_lineno
            if line in remaining:
                remaining.discard(line)
                self.executed[code.co_filename].add(line)
                if not remaining:
                    self._watch[code] = False
                    return None
        return self._line


#: Code objects with this flag are real function bodies (functions,
#: methods, lambdas, comprehensions) — the lines that run under the
#: tracer.  Module and class bodies execute at *import* time, before the
#: tracer installs, so they are excluded from numerator and denominator
#: alike: the floor measures logic-line coverage.
_CO_OPTIMIZED = 0x0001


def _floor_of(label):
    return COVERAGE_FLOORS.get(label, COVERAGE_FLOOR)


@functools.lru_cache(maxsize=None)
def _executable_lines(path):
    """Every line that can start an instruction in any function body.

    Ranges starting at bytecode offset 0 are skipped: that is the
    ``RESUME`` instruction, which carries the ``def`` line but never
    produces a ``line`` trace event.  (A one-line ``def f(): return x``
    keeps its line through the body instruction's own range.)
    """
    with open(path) as handle:
        source = handle.read()
    lines = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & _CO_OPTIMIZED:
            for start, _end, line in code.co_lines():
                if line is not None and start > 0:
                    lines.add(line)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
    return lines


def _package_coverage(tracer, target, detail=None):
    """``(percent, covered, total)`` over a package directory or file."""
    covered = total = 0
    if target.endswith(".py"):
        paths = [target]
    else:
        paths = [
            os.path.join(dirpath, name)
            for dirpath, _dirnames, filenames in os.walk(target)
            for name in sorted(filenames)
            if name.endswith(".py")
        ]
    for path in paths:
        executable = _executable_lines(path)
        hit = executable & tracer.executed.get(path, set())
        total += len(executable)
        covered += len(hit)
        if detail is not None and executable:
            missing = sorted(executable - hit)
            detail.append(
                "  %-40s %5.1f%% (missing: %s)"
                % (
                    os.path.basename(path),
                    100.0 * len(hit) / len(executable),
                    ",".join(map(str, missing[:25]))
                    + ("…" if len(missing) > 25 else ""),
                )
            )
    percent = 100.0 * covered / total if total else 100.0
    return percent, covered, total


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "smoke: the quick slice that `python -m repro.cli selftest` runs",
    )
    if os.environ.get("REPRO_COVERAGE") == "0":
        return
    if sys.gettrace() is not None:
        return  # debugger (or another tracer) owns the hook
    tracer = _LineTracer(_covered_packages())
    config._repro_coverage = tracer
    sys.settrace(tracer.dispatch)


def _property_based(item):
    return getattr(getattr(item, "obj", None), "is_hypothesis_test", False)


def pytest_collection_modifyitems(items):
    """Example-based ``smoke`` tests, the other example-based tests, the
    floor-bearing property-based modules, then every other
    property-based (hypothesis) test.

    While any target is short of its floor, *every* function call of
    *every* test pays the tracer's dispatch (about 3x on the generative
    suites, before a single line event).  The unit tests are where the
    traced lines get covered and the 70-odd generative tests are where
    the run's time goes, so this order lets the tracer retire before
    most of them start.  The smoke slice goes first because it spans
    every layer, so one early pass covers what most targets need.
    Stable: collection order within each phase.
    """
    def phase(item):
        if not _property_based(item):
            return 0 if item.get_closest_marker("smoke") else 1
        return 2 if item.nodeid.split("::")[0] in FLOOR_BEARING else 3

    items.sort(key=phase)


def pytest_runtest_teardown(item):
    tracer = getattr(item.config, "_repro_coverage", None)
    if tracer is None or sys.gettrace() is None:
        return
    tracer.tests_run += 1
    if (
        (tracer.tests_run % RETIRE_EVERY == 0 or _property_based(item))
        and not os.environ.get("REPRO_COVERAGE_DETAIL")
        and tracer.retire_met()
    ):
        sys.settrace(None)


def pytest_sessionfinish(session, exitstatus):
    tracer = getattr(session.config, "_repro_coverage", None)
    if tracer is None:
        return
    sys.settrace(None)
    forced = os.environ.get("REPRO_COVERAGE") == "force"
    full_run = session.testscollected >= COVERAGE_MIN_ITEMS
    if exitstatus or not (full_run or forced):
        return  # floor gates green full-suite runs only
    report = []
    failed = False
    detail = [] if os.environ.get("REPRO_COVERAGE_DETAIL") else None
    for label, directory in tracer.targets.items():
        floor = _floor_of(label)
        if label in tracer.retired:
            report.append(
                "coverage %-22s ≥ %.0f%% (floor met after %d tests) ok"
                % (label, floor, tracer.retired[label])
            )
            continue
        percent, covered, total = _package_coverage(
            tracer, directory, detail
        )
        if detail:
            report.extend(detail)
            detail.clear()
        verdict = "ok" if percent >= floor else "BELOW FLOOR"
        if percent < floor:
            failed = True
        report.append(
            "coverage %-22s %6.2f%% (%d/%d lines, floor %.0f%%) %s"
            % (label, percent, covered, total, floor, verdict)
        )
    session.config._repro_coverage_report = report
    if failed:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in getattr(config, "_repro_coverage_report", ()):
        terminalreporter.write_line(line)


@pytest.fixture
def figure1():
    """(graph, ids) for the paper's Figure 1 academic graph."""
    return figure1_graph()


@pytest.fixture
def figure4():
    """(graph, ids) for the paper's Figure 4 teachers graph."""
    return figure4_graph()


@pytest.fixture
def self_loop():
    """(graph, ids) for the one-node/one-loop complexity example."""
    return self_loop_graph()


@pytest.fixture(params=["interpreter", "planner"])
def read_mode(request):
    """Parametrizes read-query tests over both execution paths."""
    return request.param


@pytest.fixture
def dual_run():
    """Fixture-form of run_both for tests that build their own graphs."""
    return run_both
