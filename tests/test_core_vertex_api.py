"""Unit tests for the vertex API, config validation and partition-adjacent
pieces that need no simulator."""

import math

import pytest

from repro.core import TornadoConfig
from repro.errors import ConfigError, ReproError
from repro.core.messages import MAIN_LOOP, branch_name
from repro.core.vertex import Delta, VertexContext, VertexState


class TestVertexContext:
    def make_ctx(self, loop=MAIN_LOOP):
        state = VertexState("v1", value={"n": 0})
        return VertexContext(state, loop, iteration=3), state

    def test_value_read_write(self):
        ctx, state = self.make_ctx()
        ctx.value = {"n": 42}
        assert state.value == {"n": 42}

    def test_targets_add_remove(self):
        ctx, state = self.make_ctx()
        ctx.add_target("a")
        ctx.add_target("b")
        ctx.remove_target("a")
        assert ctx.targets == frozenset({"b"})
        assert state.targets == {"b"}

    def test_targets_view_is_immutable(self):
        ctx, _state = self.make_ctx()
        ctx.add_target("a")
        with pytest.raises(AttributeError):
            ctx.targets.add("b")

    def test_emit_collects_latest_per_target(self):
        ctx, _state = self.make_ctx()
        ctx.add_target("a")
        ctx.emit("a", 1)
        ctx.emit("a", 2)  # later emit supersedes
        assert ctx.take_emitted() == {"a": 2}
        assert ctx.take_emitted() == {}

    def test_emit_all(self):
        ctx, _state = self.make_ctx()
        ctx.add_target("a")
        ctx.add_target("b")
        ctx.emit_all("payload")
        assert ctx.take_emitted() == {"a": "payload", "b": "payload"}

    def test_loop_helpers(self):
        main_ctx, _s = self.make_ctx()
        assert main_ctx.get_loop() == MAIN_LOOP
        assert main_ctx.in_main_loop
        branch_ctx, _s = self.make_ctx(loop=branch_name(3))
        assert branch_ctx.get_loop() == "branch-3"
        assert not branch_ctx.in_main_loop

    def test_delta_is_frozen(self):
        delta = Delta("add_edge", (1, 2))
        with pytest.raises(AttributeError):
            delta.kind = "other"


class TestTornadoConfig:
    def test_defaults_valid(self):
        config = TornadoConfig()
        assert config.n_processors >= 1
        assert config.delay_bound >= 1

    @pytest.mark.parametrize("kwargs", [
        {"n_processors": 0},
        {"delay_bound": 0},
        {"storage_backend": "postgres"},
        {"merge_policy": "sometimes"},
        {"main_loop_mode": "turbo"},
        # No node to colocate processors on: TornadoJob would divide by
        # zero (n_nodes=0) or name a node "node-1" (n_nodes<0).
        {"n_nodes": 0},
        {"n_nodes": -2},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TornadoConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        # A zero interval reschedules its timer at the same instant for
        # ever: the run never advances virtual time.
        {"report_interval": 0},
        {"retransmit_timeout": 0},
        {"report_interval": math.nan},
        # Negative delays fail later, deep in the kernel, as "cannot
        # schedule in the past".
        {"report_interval": -0.01},
        {"retransmit_timeout": -0.5},
        {"net_latency": -1e-4},
        {"net_jitter": -1e-4},
        {"gather_cost": -5e-5},
        {"control_cost": -5e-6},
        {"master_cost": -1e-5},
        {"disk_seek_cost": -1e-3},
        {"disk_record_cost": -2e-6},
        {"net_capacity": 0},
    ], ids=lambda kwargs: "{}={}".format(*next(iter(kwargs.items()))))
    def test_virtual_time_delays_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TornadoConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        # A NaN factor or gap makes the trigger comparisons false for
        # ever: rebalance_enabled=True would never fire.
        {"rebalance_factor": math.nan},
        {"rebalance_factor": math.inf},
        {"rebalance_factor": 0.0},
        {"rebalance_min_gap": math.nan},
        {"rebalance_min_gap": math.inf},
        {"rebalance_min_gap": -0.05},
        {"rebalance_cooldown": math.nan},
        {"rebalance_cooldown": -1.0},
    ], ids=lambda kwargs: "{}={}".format(*next(iter(kwargs.items()))))
    def test_non_finite_balancing_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TornadoConfig(n_processors=4, n_nodes=2, **kwargs)

    def test_config_error_is_typed_and_a_value_error(self):
        with pytest.raises(ConfigError) as caught:
            TornadoConfig(n_processors=0)
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value, ValueError)

    def test_zero_costs_accepted(self):
        config = TornadoConfig(gather_cost=0.0, control_cost=0.0,
                               net_latency=0.0, disk_seek_cost=0.0)
        assert config.net_latency == 0.0

    def test_branch_name_format(self):
        assert branch_name(7) == "branch-7"
