import pytest

from kpr_lab.model import SimulationConfig, Strategy


class TestSimulationConfig:
    def test_defaults(self):
        cfg = SimulationConfig(n=100, strategy=Strategy.CROWD_AVOIDING)
        assert cfg.alpha == 1.0
        assert cfg.seed == 0
        assert not cfg.record_history

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": -5},
            {"alpha": 0.0},
            {"alpha": -1.0},
            {"max_days": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"alpha": -0.0},
            {"alpha": float("-inf")},
            {"max_days": -1},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = {"n": 10, "strategy": Strategy.RANDOM}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimulationConfig(**base)

    def test_max_days_defaults_by_strategy(self):
        assert SimulationConfig(n=50, strategy=Strategy.RANDOM).effective_max_days == 1000
        assert (
            SimulationConfig(n=50, strategy=Strategy.CROWD_AVOIDING).effective_max_days
            == 1000
        )
        assert (
            SimulationConfig(
                n=50, strategy=Strategy.GREEDY_CROWD_AVOIDING
            ).effective_max_days
            == 500
        )

    def test_explicit_max_days_wins(self):
        cfg = SimulationConfig(
            n=50, strategy=Strategy.GREEDY_CROWD_AVOIDING, max_days=77
        )
        assert cfg.effective_max_days == 77

    def test_strategy_values(self):
        assert Strategy("random") is Strategy.RANDOM
        assert Strategy("ca") is Strategy.CROWD_AVOIDING
        assert Strategy("gca") is Strategy.GREEDY_CROWD_AVOIDING
