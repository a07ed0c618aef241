"""Virtual time for the simulator.

Virtual time drives everything that the paper expresses in wall-clock terms:
the 30-second checkpoint interval, network delivery delays, fault-injection
times and failure-detection latency.  It advances in two ways:

* ranks *charge* time for the operations they perform (a linear
  latency/bandwidth cost model for messages, explicit charges for compute
  phases), and
* the scheduler *jumps* time forward to the next pending event when every
  rank is blocked.

Keeping time virtual (rather than reading the host clock) makes every run
exactly reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Linear cost model for simulated operations.

    ``alpha`` is per-message latency in seconds, ``beta`` is seconds per
    byte (inverse bandwidth), ``step`` is the charge for a bare scheduling
    step, and ``flop`` is seconds per floating point operation for
    applications that charge compute by operation count.

    Every field is checked here, once: construction raises
    :class:`~repro.errors.ConfigError` naming the field unless it is finite
    and ``>= 0``.  The model is frozen, so the per-message paths
    (``Comm`` posting a message, a receive's step, ``Scheduler.grant``)
    add its costs to the clock without checking them again.  A NaN would
    otherwise poison the clock and the network's delivery order, and a
    negative ``step`` would move time backwards on every slice.
    """

    alpha: float = 10e-6
    beta: float = 1.0 / 100e6
    step: float = 0.5e-6
    flop: float = 1.0 / 1e9

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"CostModel.{f.name} must be finite and >= 0, got {value!r}"
                )

    def message_cost(self, nbytes: int) -> float:
        """Time to move one message of ``nbytes`` across the network."""
        return self.alpha + self.beta * nbytes

    def compute_cost(self, flops: float) -> float:
        """Time to execute ``flops`` floating point operations."""
        return self.flop * flops


class VirtualClock:
    """Monotone virtual clock."""

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost = cost_model or CostModel()
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def charge(self, seconds: float) -> float:
        """Advance time by an amount the caller supplies; returns the new time.

        For amounts that are not a :class:`CostModel` field — a rank's
        ``ctx.compute(seconds=...)`` — so the amount is checked on every
        call: a negative or NaN one raises ``ValueError``.  Costs taken
        from the model were checked when it was built and are added to
        ``_now`` directly by their callers.
        """
        if not seconds >= 0:
            raise ValueError(f"cannot charge negative or NaN time {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, t: float) -> float:
        """Jump forward to absolute time ``t`` (never backwards)."""
        if t > self._now:
            self._now = t
        return self._now

    def reset(self) -> None:
        self._now = 0.0
