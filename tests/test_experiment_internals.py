"""White-box tests of the experiment harness internals."""

import pytest

from repro.experiments.fig8 import Fig8Config, PAPER_CPU, PAPER_IO, _scenario
from repro.experiments.streaming_overhead import (
    MECHANISMS,
    StreamingConfig,
    _make_mechanism,
    _build_world,
)
from repro.experiments.table1 import (
    METHODS,
    PAPER,
    Table1Config,
    _pinned_job,
    _world,
)
from repro.metrics import Series
from repro.runner import run_experiment


class TestTable1Internals:
    def test_world_has_target_plus_filler_sites(self):
        config = Table1Config(n_sites=6, seed=5)
        tb, target = _world(config, "campus", 0)
        assert target == "uab"
        assert len(tb.sites) == 6
        assert "uab" in tb.sites
        assert tb.index.site_count == 6

    def test_wan_world_targets_ifca(self):
        config = Table1Config(n_sites=4, seed=5)
        tb, target = _world(config, "wan", 1)
        assert target == "ifca"

    def test_pinned_job_uses_rank_not_requirements(self):
        job = _pinned_job("uab", "u", True, False)
        # §6.1 measured selection with "no special requirements" — all
        # sites must pass filtering and be refreshed.
        assert job.requirements is None
        assert job.rank is not None

    def test_paper_reference_values_present(self):
        assert PAPER["glogin"]["campus"] == pytest.approx(16.43)
        assert PAPER["virtual-machine"]["campus"] == pytest.approx(6.79)
        assert set(METHODS) == {"glogin", "idle", "virtual-machine",
                                "job+agent"}


class TestStreamingOverheadInternals:
    def test_mechanism_factory_names(self):
        config = StreamingConfig(scenario="campus", sequences=5)
        tb = _build_world(config, 0)
        for name in MECHANISMS:
            mech = _make_mechanism(name, tb, config)
            assert mech.name == name
            tb = _build_world(config, 1)

    def test_measure_shape(self):
        config = StreamingConfig(scenario="campus", sequences=10,
                                 sizes=(10, 1000))
        data = run_experiment("fig6", config).data["series"]
        assert set(data) == set(MECHANISMS)
        for per_size in data.values():
            assert set(per_size) == {10, 1000}
            for series in per_size.values():
                assert len(series.values) == 10


class TestFig8Internals:
    def test_paper_constants(self):
        assert PAPER_CPU["exclusive"] == pytest.approx(0.921)
        assert PAPER_CPU["shared-pl25"] == pytest.approx(1.132)
        assert PAPER_IO["shared-pl10"] == pytest.approx(0.00632)

    def test_scenario_exclusive(self):
        config = Fig8Config(iterations=50)
        io_series, cpu_series = _scenario(config, None, False, False, 0)
        assert len(cpu_series.values) == 50
        assert cpu_series.mean == pytest.approx(0.921, rel=0.01)

    def test_scenario_shared_with_batch(self):
        config = Fig8Config(iterations=50)
        io_series, cpu_series = _scenario(config, 25, True, True, 1)
        assert cpu_series.mean == pytest.approx(1.13, rel=0.02)
        assert io_series.mean > 0.0062


class TestSeriesContracts:
    def test_series_values_immutable_tuple(self):
        series = Series.of("s", [1, 2, 3])
        assert isinstance(series.values, tuple)

    def test_experiment_result_passed_property(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult("x", "t", "p")
        assert result.passed  # vacuous truth with zero checks
        result.check("ok", True)
        assert result.passed
        result.check("bad", False)
        assert not result.passed
