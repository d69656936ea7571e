"""Tests for the ``repro.api`` Session facade, design-name resolution,
and the CLI exit-code contract (0 ok / 1 failure / 2 usage / 3 interrupt)."""

import pytest

from repro.api import (
    NAME_ALIASES,
    PREFIX_ALIASES,
    Session,
    UnknownDesignError,
    UnknownToolError,
    UsageError,
    canonical_name,
    design_names,
    resolve_design,
)
from repro.cli import main
from repro.core.errors import EvaluationError
from repro.eval.measure import clear_measure_cache
from repro.resilience.runner import RunnerConfig, SweepRunner

SMALL = dict(bsc_configs=1, bambu_configs=1, xls_stages=1)


class TestResolveDesign:
    def test_aliases_resolve(self):
        assert resolve_design("vlog-opt") == "verilog-opt"
        assert resolve_design("hc-initial") == "chisel-initial"
        assert resolve_design("rules-opt") == "bsv-opt"
        assert resolve_design("flow-initial") == "xls-s0"
        assert resolve_design("flow-opt") == "xls-s8"

    def test_canonical_names_pass_through(self):
        for name in ("verilog-initial", "chisel-opt", "maxj-initial"):
            assert resolve_design(name) == name

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(UnknownDesignError) as info:
            resolve_design("chisle-opt")
        assert "chisel-opt" in info.value.suggestions
        assert "chisel-opt" in str(info.value)
        assert isinstance(info.value, UsageError)

    def test_hopeless_name_raises_without_suggestions(self):
        with pytest.raises(UnknownDesignError) as info:
            resolve_design("zzzzzzzz")
        assert info.value.suggestions == []

    def test_canonical_name_is_purely_syntactic(self):
        assert canonical_name("vlog-whatever") == "verilog-whatever"
        assert canonical_name("unrelated") == "unrelated"

    def test_design_names_covers_registry(self):
        names = design_names()
        assert "verilog-opt" in names and "maxj-initial" in names
        assert names == sorted(names)

    def test_alias_tables_are_public(self):
        assert PREFIX_ALIASES["vlog"] == "verilog"
        assert NAME_ALIASES["xls-initial"] == "xls-s0"


class TestSession:
    def test_build_and_measure(self, tmp_path):
        session = Session(cache=tmp_path / "cache")
        design = session.build("vlog-initial")
        assert design.name == "verilog-initial"
        clear_measure_cache()
        measured = session.measure("vlog-initial", n_matrices=2)
        assert measured.bit_exact
        assert session.cache.stats["puts"] > 0

    def test_verify_bypasses_caches(self):
        clear_measure_cache()
        measured = Session().verify("chisel-opt")
        assert measured.bit_exact and measured.periodicity == 8

    def test_unknown_design_raises_usage_error(self):
        with pytest.raises(UnknownDesignError):
            Session().build("no-such-design")

    def test_table2_rejects_unknown_tool(self):
        with pytest.raises(UnknownToolError) as info:
            Session().table2(tools=["Chisel/Chisle"])
        assert "Chisel/Chisel" in info.value.suggestions

    def test_runner_type_is_validated(self):
        with pytest.raises(TypeError):
            Session(runner="fast")
        fixed = SweepRunner(config=RunnerConfig(n_matrices=2))
        session = Session(runner=fixed, jobs=8)
        assert session._sweep_runner(None) is fixed
        assert session.last_runner is fixed

    def test_fig1_parallel_session_equals_serial_session(self):
        from repro.eval.experiments import render_fig1

        config = RunnerConfig(n_matrices=2)
        clear_measure_cache()
        serial = render_fig1(Session(runner=config).fig1(**SMALL))
        clear_measure_cache()
        parallel_session = Session(jobs=2, runner=config)
        parallel = render_fig1(parallel_session.fig1(**SMALL))
        assert parallel == serial
        assert parallel_session.last_runner.stats["ok"] > 0

    def test_summary_lines_report_cache(self, tmp_path):
        config = RunnerConfig(n_matrices=2)
        clear_measure_cache()
        session = Session(cache=tmp_path / "cache", runner=config)
        session.table2(tools=["Chisel/Chisel"])
        lines = session.summary_lines()
        assert any(line.startswith("cache:") for line in lines)


class TestExitCodeContract:
    """The documented contract: 0 ok, 1 failure, 2 usage, 3 interrupted."""

    def test_ok_is_zero(self):
        assert main(["table1"]) == 0

    def test_unknown_design_is_two(self, capsys):
        assert main(["verify", "no-such-design"]) == 2
        err = capsys.readouterr().err
        assert "unknown design" in err

    def test_unknown_design_suggests_near_miss(self, capsys):
        assert main(["verify", "chisle-opt"]) == 2
        assert "chisel-opt" in capsys.readouterr().err

    def test_unknown_tool_is_two(self, capsys):
        assert main(["table2", "--tools", "Nope/Nope"]) == 2
        assert "unknown tool" in capsys.readouterr().err

    def test_unknown_profile_design_is_two(self, capsys):
        assert main(["profile", "no-such-design"]) == 2

    def test_unknown_faults_design_is_two(self, capsys):
        assert main(["faults", "no-such-design", "--smoke"]) == 2

    def test_compliance_failure_is_one(self, capsys, monkeypatch):
        def boom(self, name, engine="compiled"):
            raise EvaluationError("golden mismatch", design=name,
                                  phase="eval.verify")

        monkeypatch.setattr(Session, "verify", boom)
        assert main(["verify", "chisel-opt"]) == 1
        assert "COMPLIANCE FAILURE" in capsys.readouterr().err

    def test_interrupted_sweep_is_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ABORT_AFTER", "2")
        path = tmp_path / "ck.jsonl"
        clear_measure_cache()
        assert main(["fig1", "--checkpoint", str(path)]) == 3
        err = capsys.readouterr().err
        assert "sweep interrupted" in err
        assert "--resume" in err
        assert path.exists()
