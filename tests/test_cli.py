"""Unit tests for the interactive shell (driven through StringIO)."""

import io
import os
import re
import subprocess
import sys

import pytest

from repro.cli import Shell, main
from repro.graph.builder import GraphBuilder
from repro.runtime.engine import CypherEngine


def make_shell(graph=None):
    output = io.StringIO()
    engine = CypherEngine(graph) if graph is not None else None
    shell = Shell(engine=engine, output=output)
    return shell, output


class TestQueries:
    def test_query_prints_table_and_row_count(self):
        shell, output = make_shell()
        shell.handle("RETURN 1 AS x;")
        text = output.getvalue()
        assert "x" in text
        assert "(1 row)" in text

    def test_updates_print_ok(self):
        shell, output = make_shell()
        shell.handle("CREATE (:Person {name: 'Ann'})")
        assert "ok" in output.getvalue()
        shell.handle("MATCH (p:Person) RETURN p.name AS name")
        assert "Ann" in output.getvalue()

    def test_errors_are_reported_not_raised(self):
        shell, output = make_shell()
        shell.handle("MATCH (")
        assert "error:" in output.getvalue()

    def test_blank_lines_ignored(self):
        shell, output = make_shell()
        assert shell.handle("   ") is True
        assert output.getvalue() == ""


class TestCommands:
    def test_quit_stops_the_loop(self):
        shell, _ = make_shell()
        assert shell.handle(":quit") is False

    def test_help(self):
        shell, output = make_shell()
        shell.handle(":help")
        assert ":schema" in output.getvalue()

    def test_schema(self):
        graph, _ = (
            GraphBuilder()
            .node("a", "Person").node("b", "City")
            .rel("a", "IN", "b")
            .build()
        )
        shell, output = make_shell(graph)
        shell.handle(":schema")
        text = output.getvalue()
        assert "2 nodes, 1 relationships" in text
        assert "City" in text and "Person" in text and "IN" in text

    def test_schema_renders_composite_indexes_like_index(self):
        shell, output = make_shell()
        shell.handle(":index :A(x,y)")
        shell.handle(":index :B(z)")
        shell.handle(":schema")
        assert "indexes: :A(x,y), :B(z)" in output.getvalue()

    def test_mode_switch(self):
        shell, output = make_shell()
        shell.handle(":mode planner")
        assert shell.engine.mode == "planner"
        shell.handle(":mode bogus")
        assert "usage" in output.getvalue()

    def test_mode_parallel_is_refused(self):
        shell, output = make_shell()
        shell.handle(":mode parallel")
        assert "usage: :mode auto|interpreter|planner|row|batch" in (
            output.getvalue()
        )
        assert shell.engine.mode == "auto"

    def test_explain(self):
        shell, output = make_shell()
        shell.handle(":explain MATCH (n) RETURN n")
        text = output.getvalue()
        assert "AllNodesScan" in text
        assert "execution mode: batch" in text

    def test_unknown_command(self):
        shell, output = make_shell()
        shell.handle(":frobnicate")
        assert "unknown command" in output.getvalue()

    def test_save_and_load(self, tmp_path):
        graph, _ = GraphBuilder().node("a", "L", v=1).build()
        shell, output = make_shell(graph)
        path = str(tmp_path / "g.json")
        shell.handle(":save %s" % path)
        assert "saved" in output.getvalue()

        fresh, fresh_output = make_shell()
        fresh.handle(":load %s" % path)
        assert "loaded 1 nodes" in fresh_output.getvalue()
        fresh.handle("MATCH (n:L) RETURN n.v AS v")
        assert "1" in fresh_output.getvalue()

    def test_load_missing_file(self):
        shell, output = make_shell()
        shell.handle(":load /nonexistent/file.json")
        assert "error:" in output.getvalue()

    def test_reach_lifecycle(self):
        graph, _ = (
            GraphBuilder()
            .node("a", "L", name="x").node("b", "L", name="y")
            .rel("a", "R", "b")
            .build()
        )
        shell, output = make_shell(graph)
        shell.handle(":reach")
        assert "no reachability indexes" in output.getvalue()
        shell.handle(":reach :R")
        assert "created reachability index :R" in output.getvalue()
        shell.handle(":reach *")
        assert "created reachability index <any type>" in output.getvalue()
        shell.handle(":reach :R")
        assert "already exists" in output.getvalue()
        shell.handle(":reach")
        assert "2 node(s), 1 edge(s), 2 component(s)" in output.getvalue()
        shell.handle(":schema")
        assert "reachability indexes: <any type>, :R" in output.getvalue()
        shell.handle(
            ":explain MATCH (a {name:'x'}), (b {name:'y'}) "
            "MATCH (a)-[:R*]->(b) RETURN count(*) AS c"
        )
        assert "ReachabilityProbe" in output.getvalue()
        assert "via reach(:R, forward)" in output.getvalue()
        shell.handle(":reach drop :R")
        assert "dropped reachability index :R" in output.getvalue()
        shell.handle(":reach drop :R")
        assert "no reachability index :R" in output.getvalue()
        shell.handle(":reach bad(spec)")
        assert "usage: :reach" in output.getvalue()

    def test_run_drives_multiple_lines(self):
        shell, output = make_shell()
        shell.run(["CREATE (:A)", "MATCH (a:A) RETURN count(*) AS n", ":quit",
                   "RETURN 'never' AS x"])
        text = output.getvalue()
        assert "never" not in text
        assert "1" in text


class TestMain:
    def test_one_shot_query(self, capsys):
        exit_code = main(["--query", "RETURN 40 + 2 AS answer"])
        assert exit_code == 0
        assert "42" in capsys.readouterr().out

    def test_graph_loading(self, tmp_path, capsys):
        from repro.graph.io import dump_json

        graph, _ = GraphBuilder().node("a", "Person", name="Ann").build()
        path = str(tmp_path / "g.json")
        dump_json(graph, path)
        main(["--graph", path, "--query",
              "MATCH (p:Person) RETURN p.name AS name"])
        assert "Ann" in capsys.readouterr().out


class TestExplainSubcommand:
    def test_reach_index_flag_takes_the_probe(self, tmp_path, capsys):
        from repro.graph.io import dump_json

        graph, _ = (
            GraphBuilder()
            .node("a", "L", name="x").node("b", "L", name="y")
            .rel("a", "R", "b")
            .build()
        )
        path = str(tmp_path / "g.json")
        dump_json(graph, path)
        code = main([
            "explain",
            "MATCH (a {name:'x'}), (b {name:'y'}) "
            "MATCH (a)-[:R*]->(b) RETURN count(*) AS c",
            "--graph", path, "--reach-index", ":R", "--profile",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "ReachabilityProbe" in text
        assert "reachability probe :R (forward)" in text

    def test_bad_reach_spec_is_rejected(self, capsys):
        code = main([
            "explain", "RETURN 1 AS x", "--reach-index", "totally bad",
        ])
        assert code == 2
        assert "bad reachability spec" in capsys.readouterr().err

    def test_workers_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", "RETURN 1 AS x", "--workers", "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --workers 2" in err


class TestSelftestSubcommand:
    """``selftest`` is ``pytest -m smoke`` over ``tests/``, exit-mapped."""

    #: Test functions marked ``smoke`` across the suite, at least; the
    #: real run's collection counts them.
    MARKED_TESTS = 37

    @staticmethod
    def fake_pytest(monkeypatch, code):
        seen = {}

        def fake_main(argv):
            seen["argv"] = argv
            seen["coverage"] = os.environ.get("REPRO_COVERAGE")
            return code

        monkeypatch.setattr(pytest, "main", fake_main)
        return seen

    @pytest.mark.parametrize("outer", [None, "force"])
    def test_runs_the_smoke_marker_untraced(self, monkeypatch, outer):
        if outer is None:
            monkeypatch.delenv("REPRO_COVERAGE", raising=False)
        else:
            monkeypatch.setenv("REPRO_COVERAGE", outer)
        seen = self.fake_pytest(monkeypatch, 0)
        assert main(["selftest"]) == 0
        argv = seen["argv"]
        assert argv[argv.index("-m") + 1] == "smoke"
        assert os.path.basename(argv[-1]) == "tests"
        assert os.path.isdir(argv[-1])
        assert seen["coverage"] == "0"  # set for the call...
        assert os.environ.get("REPRO_COVERAGE") == outer  # ...then restored

    @pytest.mark.parametrize("code, exit_code, verdict", [
        (0, 0, "selftest passed"),
        (1, 1, "selftest FAILED"),
        (5, 1, "selftest FAILED"),  # no test collected
    ])
    def test_pytest_codes_map_to_exit_codes(
        self, monkeypatch, capsys, code, exit_code, verdict
    ):
        self.fake_pytest(monkeypatch, code)
        assert main(["selftest"]) == exit_code
        assert capsys.readouterr().out.splitlines()[-1].startswith(verdict)

    def test_missing_tests_directory_is_a_usage_error(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.cli as cli_module

        seen = self.fake_pytest(monkeypatch, 0)
        monkeypatch.setattr(
            cli_module, "__file__", str(tmp_path / "src" / "repro" / "cli.py")
        )
        assert main(["selftest"]) == 2
        assert "error: no tests/ directory" in capsys.readouterr().err
        assert not seen

    #: A narrow ``-k`` slice for the real run: its unmarked cases prove
    #: the selection is by the ``smoke`` marker, without re-running the
    #: whole slice the suite has already run in-process.
    REAL_RUN_SLICE = ("TestStatementAtomicity", "TestSingleWriter")

    #: A pytest plugin the real run loads: before ``-m`` / ``-k``
    #: deselect anything, it writes every collected case and whether
    #: ``smoke`` marks it to ``smoke_census.json`` in the working
    #: directory.
    CENSUS_PLUGIN = (
        "import json\n"
        "import pytest\n"
        "@pytest.hookimpl(tryfirst=True)\n"
        "def pytest_collection_modifyitems(items):\n"
        "    with open('smoke_census.json', 'w') as out:\n"
        "        json.dump([[item.nodeid, bool(item.get_closest_marker("
        "'smoke'))] for item in items], out)\n"
    )

    def test_real_run_passes_every_smoke_test(self, tmp_path):
        import json

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        (tmp_path / "smoke_census.py").write_text(self.CENSUS_PLUGIN)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((src, str(tmp_path))),
            PYTEST_ADDOPTS="-p smoke_census -k '%s'"
            % " or ".join(self.REAL_RUN_SLICE),
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "selftest"],
            cwd=str(tmp_path), env=env, capture_output=True, text=True,
            timeout=600,
        )
        out = done.stdout
        assert done.returncode == 0, out[-2000:] + done.stderr[-2000:]
        assert out.splitlines()[-1].startswith("selftest passed")
        census = json.loads((tmp_path / "smoke_census.json").read_text())
        marked = {nodeid.split("[")[0] for nodeid, smoke in census if smoke}
        assert len(marked) >= self.MARKED_TESTS
        in_slice = [
            smoke for nodeid, smoke in census
            if any("::%s::" % name in nodeid for name in self.REAL_RUN_SLICE)
        ]
        assert not all(in_slice)  # unmarked cases the marker must drop
        summary = re.search(r"^(\d+) passed.* in ", out, re.MULTILINE)
        assert summary and int(summary.group(1)) == sum(in_slice)
        assert "failed" not in summary.group(0)
        assert "error" not in summary.group(0)


class TestBenchSubcommand:
    def test_bench_invokes_pytest_on_bench_files(self, monkeypatch):
        import pytest as pytest_module

        captured = {}

        def fake_main(argv):
            captured["argv"] = argv
            return 0

        monkeypatch.setattr(pytest_module, "main", fake_main)
        assert main(["bench", "--pipeline-only", "-k", "expand"]) == 0
        argv = captured["argv"]
        assert "-k" in argv and "expand" in argv
        targets = [arg for arg in argv if arg.endswith(".py")]
        assert targets, "bench files must be passed explicitly"
        assert all("bench_p" in target for target in targets)

    def test_bench_output_override_scoped_to_run(self, monkeypatch, tmp_path):
        import os

        import pytest as pytest_module

        seen = {}

        def fake_main(argv):
            seen["env"] = os.environ.get("BENCH_PIPELINE_PATH")
            return 0

        monkeypatch.setattr(pytest_module, "main", fake_main)
        out = str(tmp_path / "perf.json")
        main(["bench", "--output", out])
        assert seen["env"] == out  # visible to the benchmark session...
        assert "BENCH_PIPELINE_PATH" not in os.environ  # ...then restored


class TestTransactions:
    """:begin / :commit / :rollback / :timeout (PR 6)."""

    def test_begin_commit_makes_changes_durable(self):
        shell, output = make_shell()
        shell.handle(":begin")
        shell.handle("CREATE (:P {name: 'Ann'})")
        shell.handle(":commit")
        shell.handle("MATCH (p:P) RETURN count(*) AS c")
        text = output.getvalue()
        assert "transaction begun" in text
        assert "transaction committed" in text
        assert "1" in text.splitlines()[-2]

    def test_rollback_discards_everything_since_begin(self):
        shell, output = make_shell()
        shell.handle(":begin")
        shell.handle("CREATE (:P {name: 'Gone'})")
        shell.handle("CREATE (:P {name: 'AlsoGone'})")
        shell.handle(":rollback")
        assert "transaction rolled back" in output.getvalue()
        assert shell.engine.graph.node_count() == 0

    def test_commit_without_begin_is_a_one_line_error(self):
        shell, output = make_shell()
        shell.handle(":commit")
        assert "error: no open transaction" in output.getvalue()

    def test_double_begin_is_a_one_line_error(self):
        shell, output = make_shell()
        shell.handle(":begin")
        shell.handle(":begin")
        assert "error: a transaction is already open" in output.getvalue()
        shell.handle(":rollback")

    def test_load_refused_during_transaction(self):
        shell, output = make_shell()
        shell.handle(":begin")
        shell.handle(":load somewhere.json")
        assert ":commit or :rollback before :load" in output.getvalue()
        shell.handle(":rollback")

    def test_timeout_fires_as_one_line_error_not_traceback(self):
        shell, output = make_shell()
        shell.handle("UNWIND range(1, 40) AS i CREATE (:N {v: i})")
        shell.handle(":timeout 1")
        shell.handle("MATCH (a:N), (b:N), (c:N), (d:N) RETURN count(*) AS c")
        text = output.getvalue()
        assert "timeout set to 1 ms" in text
        assert "error: query exceeded its time limit" in text
        assert "Traceback" not in text

    def test_interrupted_write_is_rolled_back(self):
        shell, output = make_shell()
        shell.handle("UNWIND range(1, 40) AS i CREATE (:N {v: i})")
        shell.handle(":timeout 1")
        shell.handle(
            "MATCH (a:N), (b:N), (c:N) CREATE (:Cross {v: a.v + b.v + c.v})"
        )
        assert "error: query exceeded its time limit" in output.getvalue()
        shell.handle(":timeout off")
        shell.handle("MATCH (x:Cross) RETURN count(*) AS c")
        assert shell.engine.graph.node_count() == 40

    def test_timeout_off_and_status(self):
        shell, output = make_shell()
        shell.handle(":timeout")
        shell.handle(":timeout 250")
        shell.handle(":timeout")
        shell.handle(":timeout off")
        shell.handle(":timeout banana")
        text = output.getvalue()
        assert "timeout: unlimited" in text
        assert "timeout: 250 ms" in text
        assert "timeout disabled" in text
        assert "usage: :timeout" in text

    def test_overload_is_a_one_line_error(self):
        shell, output = make_shell()
        shell.engine.max_sessions = 1
        import threading

        shell.engine._admission = threading.BoundedSemaphore(1)
        with shell.engine.session() as _held:
            shell.handle(":begin")
        assert "error: engine is at its 1 in-flight session" in output.getvalue()
