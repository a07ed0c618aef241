"""The cost model is checked once, when it is built.

The per-message paths add its costs to the virtual clock unchecked, so a
non-finite or negative field must never reach a run: a NaN ``beta`` used
to poison the clock and the network's delivery order (a 2-rank ring never
finished), and a negative ``step`` moved time backwards on every slice
until a receive's checked charge failed inside the application.
"""

import dataclasses
import math

import pytest

from repro import Session
from repro.errors import ConfigError
from repro.runtime import RunConfig
from repro.simmpi.clock import CostModel, VirtualClock

FIELDS = ("alpha", "beta", "step", "flop")
BAD = (float("nan"), float("inf"), -1e-3)

#: The two reproductions: each used to hang or die mid-run.
REPRODUCTIONS = ({"beta": float("nan")}, {"step": -1e-3})


def _ring(ran):
    def main(ctx):
        ran.append(ctx.rank)
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        for lap in range(3):
            yield from ctx.mpi.co_send(lap, right, tag=1)
            yield from ctx.mpi.co_recv(source=left, tag=1)
        return ctx.rank

    return main


@pytest.mark.parametrize("bad", BAD, ids=("nan", "inf", "negative"))
@pytest.mark.parametrize("name", FIELDS)
def test_each_field_must_be_finite_and_non_negative(name, bad):
    with pytest.raises(ConfigError, match=f"CostModel.{name} must be finite and >= 0"):
        CostModel(**{name: bad})


def test_zero_costs_are_allowed_and_the_model_is_frozen():
    free = CostModel(alpha=0.0, beta=0.0, step=0.0, flop=0.0)
    assert free.message_cost(1 << 20) == 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        free.step = -1.0
    with pytest.raises(ConfigError, match="CostModel.step"):
        dataclasses.replace(free, step=-1.0)


@pytest.mark.parametrize("bad", REPRODUCTIONS, ids=("nan-beta", "negative-step"))
def test_reproductions_fail_before_any_rank_runs(bad):
    (name,) = bad
    ran = []
    with pytest.raises(ConfigError, match=f"CostModel.{name}"):
        Session().run(_ring(ran), RunConfig(nprocs=2, cost_model=CostModel(**bad)))
    assert ran == []


def test_the_same_ring_runs_under_a_valid_model():
    ran = []
    model = CostModel(beta=0.0, step=0.0)
    out = Session().run(
        _ring(ran), RunConfig(nprocs=2, checkpoint_interval=None, cost_model=model)
    )
    assert out.completed and out.results == [0, 1] and sorted(set(ran)) == [0, 1]
    assert math.isfinite(out.total_virtual_time) and out.total_virtual_time > 0


@pytest.mark.parametrize("amount", (-1.0, float("nan")))
def test_charge_still_checks_caller_supplied_amounts(amount):
    clock = VirtualClock()
    with pytest.raises(ValueError, match="cannot charge"):
        clock.charge(amount)
    assert clock.now == 0.0
