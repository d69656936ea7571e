"""Design points as recipes: a recipe names its design exactly, and a
point whose measurement is cached is never built.

``frontend.build`` spans count builds: every frontend factory opens one.
"""

import pytest

from repro import obs
from repro.api import (
    Session,
    UnknownDesignError,
    UnknownToolError,
    UsageError,
    design_names,
    find_recipe,
    resolve_design,
)
from repro.core.errors import ScheduleError
from repro.eval.experiments import (
    PAIR_RECIPES,
    fig1_design_lists,
    generate_fig1,
    render_fig1,
)
from repro.eval.measure import clear_measure_cache, measure_design
from repro.eval.verify import random_matrices
from repro.frontends.base import Recipe
from repro.obs import trace as obs_trace
from repro.resilience.runner import RunnerConfig, SweepRunner

CONFIG = RunnerConfig(n_matrices=2)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.clear()
    yield
    obs.disable()
    obs.clear()


def _count(name: str) -> int:
    return sum(rec.name == name for rec in obs_trace.events())


def _assert_names_its_design(recipe: Recipe) -> None:
    design = recipe.build()
    assert (design.name, design.tool, design.config) == (
        recipe.name, recipe.tool, recipe.config)


class TestRecipesNameTheirDesigns:
    """The artifact key is (name, config): a recipe that drifted from its
    design would read and write another point's cache entries."""

    def test_table2_points(self):
        recipes = [recipe for pair in PAIR_RECIPES.values()
                   for recipe in pair]
        assert len(recipes) == 14
        for recipe in recipes:
            _assert_names_its_design(recipe)

    def test_full_fig1_enumeration(self):
        from repro.frontends.chls import bambu_sweep

        lists = dict(fig1_design_lists(bsc_configs=26, bambu_configs=42,
                                       xls_stages=18))
        # 13 urgency permutations x 2 conflict analyses, exact first.
        assert [r.name for r in lists["BSC"][2:]] == [
            f"bsv-opt-sweep-{mode}-{seed}"
            for mode in ("exact", "pessimistic") for seed in range(13)]
        assert lists["BSC"][2].name == "bsv-opt-sweep-exact-0"
        assert lists["BSC"][-1].name == "bsv-opt-sweep-pessimistic-12"
        assert len(lists["Bambu"]) == len(bambu_sweep()) == 42
        assert len(lists["XLS"]) == 19
        assert sum(map(len, lists.values())) == 98
        for recipes in lists.values():
            for recipe in recipes:
                _assert_names_its_design(recipe)


class TestMeasureMemo:
    def test_memo_keys_on_config(self):
        # Table II's xls-s8 is config "opt", Fig. 1's is "stages-8": one
        # process measuring both must return two records.
        clear_measure_cache()
        table2 = measure_design(PAIR_RECIPES["DSLX/XLS"][1], n_matrices=2)
        fig1 = dict(fig1_design_lists(xls_stages=8))["XLS"][8]
        assert fig1.name == "xls-s8"
        measured = measure_design(fig1, n_matrices=2)
        assert (table2.config, measured.config) == ("opt", "stages-8")
        assert measure_design(fig1, n_matrices=2) is measured


class TestBuildFailures:
    def test_failed_build_is_one_unretried_failed_cell(self):
        calls = []

        def broken():
            calls.append(1)
            raise ScheduleError("schedule does not fit")

        recipe = Recipe("xls-s5", "XLS", "stages-5", broken)
        runner = SweepRunner(config=CONFIG)
        series = generate_fig1(runner=runner,
                               design_lists=[("XLS", [recipe])])
        assert series[0].failures == [("stages-5", "ScheduleError")]
        assert len(calls) == 1 and runner.stats["retries"] == 0
        result = SweepRunner(config=CONFIG).measure(recipe)
        assert result.error["phase"] == "frontend.build"
        assert result.attempts == 1


class TestResolutionBuildsNothing:
    def test_resolve_and_list(self):
        obs.enable()
        assert resolve_design("flow-opt") == "xls-s8"
        assert find_recipe("hc-opt").name == "chisel-opt"
        assert find_recipe("nope") is None
        assert len(design_names()) == 14
        with pytest.raises(UnknownDesignError):
            resolve_design("chisle-opt")
        assert _count("frontend.build") == 0

    @pytest.mark.parametrize("name, suggestions", [
        ("chisle-opt", ["chisel-opt", "rules-opt", "hc-opt"]),
        ("vlog-opr", ["vlog-opt", "verilog-opt", "xls-opt"]),
        ("xls-s9", ["xls-s8", "xls-s0", "xls-opt"]),
        ("bambu", ["bambu-opt", "bambu-initial"]),
        ("flow-int", ["flow-s8", "flow-s0", "vlog-initial"]),
        ("vivado-opt", ["vivado-hls-opt", "vlog-opt", "verilog-opt"]),
        ("zzzz", []),
    ])
    def test_near_miss_suggestions(self, name, suggestions):
        with pytest.raises(UnknownDesignError) as info:
            resolve_design(name)
        assert info.value.suggestions == suggestions


class TestSweepParameters:
    """The registry bounds every sweep request before any work starts."""

    def test_fig1_rejects_a_negative_size_before_building(self):
        obs.enable()
        with pytest.raises(UsageError, match="bsc_configs"):
            Session().fig1(bsc_configs=-1)
        assert _count("frontend.build") == 0

    @pytest.mark.parametrize("sizes", [
        dict(bambu_configs=43), dict(bsc_configs=27), dict(xls_stages=19),
        dict(bambu_configs=-2), dict(xls_stages=-3), dict(bsc_configs=True),
        dict(xls_stages="many"), dict(bambu_configs=2.0),
    ])
    def test_design_lists_reject_sizes_outside_the_figure(self, sizes):
        with pytest.raises(UsageError):
            fig1_design_lists(**sizes)

    def test_size_table_bounds_and_defaults(self):
        from repro.eval.experiments import fig1_sizes

        full = dict(bsc_configs=26, bambu_configs=42, xls_stages=18)
        assert fig1_sizes(True) == full
        assert fig1_sizes() == dict(bsc_configs=4, bambu_configs=6,
                                    xls_stages=8)
        assert fig1_sizes(**full) == full
        assert fig1_sizes(True, bsc_configs=0, xls_stages=None) == dict(
            full, bsc_configs=0)
        lists = dict(fig1_design_lists(bsc_configs=0, bambu_configs=0,
                                       xls_stages=0))
        assert (len(lists["BSC"]), len(lists["Bambu"]),
                len(lists["XLS"])) == (2, 0, 1)
        for full_flag in ("no", 1, None):
            with pytest.raises(UsageError, match="full"):
                fig1_sizes(full_flag)

    def test_table2_keys_put_the_baseline_first(self):
        from repro.eval.experiments import table2_keys

        assert table2_keys(None) == list(PAIR_RECIPES)
        assert table2_keys([]) == list(PAIR_RECIPES)
        assert table2_keys(["C/Bambu", "Verilog/Vivado", "C/Bambu"]) == [
            "Verilog/Vivado", "C/Bambu"]
        with pytest.raises(UsageError, match="list"):
            table2_keys("Chisel/Chisel")
        with pytest.raises(UnknownToolError) as info:
            table2_keys(["Chisel/Chisle"])
        assert info.value.suggestions == ["Chisel/Chisel"]
        with pytest.raises(UnknownToolError):
            table2_keys([["Chisel/Chisel"]])


class TestEvaluatorWarmStart:
    DESIGN = "verilog-initial"

    def test_cached_measurement_builds_nothing(self, tmp_path):
        clear_measure_cache()
        Session(cache=tmp_path).measure(self.DESIGN)
        clear_measure_cache()
        obs.enable()
        session = Session(cache=tmp_path)
        evaluator = session.evaluator("vlog-initial")
        assert session.evaluator(self.DESIGN) is evaluator
        blocks = random_matrices(2)
        model = session.idct(self.DESIGN, blocks, engine="model")
        assert _count("frontend.build") == 0
        # The sim and batch engines need the netlist: one build, shared.
        assert evaluator.evaluate(blocks, engine="sim") == model
        assert evaluator.evaluate(blocks, engine="batch") == model
        assert _count("frontend.build") == 1

    def test_cold_start_builds_once(self, tmp_path):
        clear_measure_cache()
        obs.enable()
        session = Session(cache=tmp_path)
        evaluator = session.evaluator(self.DESIGN)
        evaluator.evaluate(random_matrices(1), engine="sim")
        assert _count("frontend.build") == 1


class TestWarmSweepsBuildNothing:
    def test_warm_fig1_builds_nothing_parallel_and_serial(self, tmp_path):
        cache = tmp_path / "cache"
        clear_measure_cache()
        cold = render_fig1(Session(jobs=2, cache=cache,
                                   runner=CONFIG).fig1())
        for jobs in (2, 1):
            clear_measure_cache()
            session = Session(jobs=jobs, cache=cache, runner=CONFIG,
                              trace=True)
            try:
                warm = render_fig1(session.fig1())
                assert _count("frontend.build") == 0
                assert _count("measure") == 0
                if jobs > 1:
                    assert _count("exec.task") == 30  # worker spans landed
            finally:
                session.close()
            assert warm == cold
            assert session.cache.stats["misses"] == 0
