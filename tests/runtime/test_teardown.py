"""A finished run is freed by reference counting alone.

Every rank points back at its simulator, the checkpoint stage at its
pipeline, the initiator at both; unless the run cuts those links when it
ends, each ``Session.run`` leaves its simulator, pipelines and store (and
the arrays they hold) in reference cycles until the cyclic collector
happens to run.
"""

import gc
import weakref

import pytest

from repro import Session
from repro.apps.dense_cg import CGParams
from repro.runtime import RunConfig, Variant
from repro.simmpi import FailureSchedule
from repro.simmpi.simulator import Simulator
from repro.statesave import Storage


@pytest.fixture
def tracked(monkeypatch):
    """Weak references to every ``Simulator`` and ``Storage`` built."""
    refs = []
    for cls in (Simulator, Storage):
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", init)
    return refs


@pytest.mark.parametrize("variant,kill", [
    (Variant.UNMODIFIED, None),
    (Variant.PIGGYBACK, None),
    (Variant.NO_APP_STATE, None),
    (Variant.FULL, (0.009, 1)),
], ids=["V0", "V1", "V2", "V3-recovery"])
def test_finished_run_is_freed_without_the_cyclic_collector(tracked, variant, kill):
    config = RunConfig(
        nprocs=4, seed=3, variant=variant,
        checkpoint_interval=0.002, detector_timeout=0.05,
    )
    failures = FailureSchedule.single(time=kill[0], rank=kill[1]) if kill else None
    session = Session()
    gc.collect()
    gc.disable()
    try:
        outcome = session.run(
            "dense_cg", config, params=CGParams(n=48, iterations=30), failures=failures
        )
        assert outcome.completed
        assert outcome.restarts == (1 if kill else 0)
        # The session's default storage, and one simulator per attempt.
        assert len(tracked) == 2 + outcome.restarts
        del outcome
        assert [ref() for ref in tracked] == [None] * len(tracked)
    finally:
        gc.enable()
