"""The mechanisms behind Figure 8 / Section 6.2, as exact simulated facts.

The paper's four builds — Unmodified (V0), Protocol Layer with no
checkpoints (V1), No Application State (V2) and Full (V3) — must compute
the same answer, and the overheads it reports come from countable
mechanisms: the checkpointing builds write waves, Neurosys's command
collective doubles its messages, dense CG's stored bytes follow its
state size, and Laplace's halo rows dwarf the piggybacked word.  Every
assertion here is a count or a byte total from ``Session.sweep``, never
host time; the timed four-variant record is ``benchmarks/e2e``.
"""

import functools
import pickle

import pytest

from repro import RunConfig, Session, Variant
from repro.apps import (
    DEFAULT_CHECKPOINT_INTERVAL,
    CGParams,
    LaplaceParams,
    NeurosysParams,
    Stencil3DParams,
)
from repro.simmpi.datatypes import PIGGYBACK_PACKED_BYTES

CONFIG = RunConfig(
    nprocs=4, seed=7,
    checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL, detector_timeout=0.05,
)

#: Per gallery app, a size long enough for the checkpointing builds to
#: commit at least one wave at ``DEFAULT_CHECKPOINT_INTERVAL``.
GALLERY = {
    "dense_cg": CGParams(n=64, iterations=25),
    "laplace": LaplaceParams(n=64, iterations=50),
    "neurosys": NeurosysParams(grid=4, iterations=10),
    "stencil3d": Stencil3DParams(n=16, iterations=40),
}


@functools.lru_cache(maxsize=None)
def _four_variants(app):
    sweep = Session().sweep(app, CONFIG, params=[GALLERY[app]], parallel=False)
    return sweep.by_variant()


def _sweep_one(app, params, variants):
    sweep = Session().sweep(
        app, CONFIG, variants=variants, params=[params], parallel=False
    )
    return sweep.by_variant()


@pytest.mark.parametrize("app", sorted(GALLERY))
def test_every_variant_returns_the_unmodified_results(app):
    """Instrumentation never changes what the application computes."""
    outcomes = _four_variants(app)
    reference = pickle.dumps(outcomes[Variant.UNMODIFIED].results)
    for variant, outcome in outcomes.items():
        assert outcome.completed
        assert pickle.dumps(outcome.results) == reference, variant
        if app == "dense_cg":
            assert outcome.results[0]["max_error"] < 1e-6, variant


@pytest.mark.parametrize("app", sorted(GALLERY))
def test_only_the_checkpointing_variants_commit_waves(app):
    outcomes = _four_variants(app)
    assert outcomes[Variant.UNMODIFIED].checkpoints_committed == 0
    assert outcomes[Variant.PIGGYBACK].checkpoints_committed == 0
    assert outcomes[Variant.NO_APP_STATE].checkpoints_committed >= 1
    assert outcomes[Variant.FULL].checkpoints_committed >= 1


def test_neurosys_command_collective_doubles_its_messages():
    """The layer sends a command collective before each of Neurosys's
    data collectives — the source of the paper's 160 % small-size
    overhead."""
    outcomes = _sweep_one(
        "neurosys", NeurosysParams(grid=4, iterations=10),
        (Variant.UNMODIFIED, Variant.PIGGYBACK),
    )
    plain = outcomes[Variant.UNMODIFIED].network_messages
    layered = outcomes[Variant.PIGGYBACK].network_messages
    assert layered >= 1.7 * plain, (plain, layered)


def test_dense_cg_stored_bytes_per_wave_follow_the_state_size():
    """Dense CG's state grows with n² — the paper's 14 % → 43 % driver."""
    per_wave = {}
    for n in (64, 128):
        outcome = _sweep_one(
            "dense_cg", CGParams(n=n, iterations=25), (Variant.FULL,)
        )[Variant.FULL]
        assert outcome.checkpoints_committed >= 1
        per_wave[n] = outcome.storage_bytes_written / outcome.checkpoints_committed
    assert per_wave[128] > 2.5 * per_wave[64], per_wave


def test_laplace_halo_row_dwarfs_the_piggyback_word():
    """Laplace's messages are halo rows; the layer adds one packed word to
    each — why the paper finds piggybacking nearly free there."""
    params = LaplaceParams(n=128, iterations=10)
    outcomes = _sweep_one(
        "laplace", params, (Variant.UNMODIFIED, Variant.PIGGYBACK)
    )
    plain, layered = outcomes[Variant.UNMODIFIED], outcomes[Variant.PIGGYBACK]
    assert layered.network_messages == plain.network_messages
    added = layered.network_bytes - plain.network_bytes
    assert added == plain.network_messages * PIGGYBACK_PACKED_BYTES
    row_bytes = params.n * 8
    assert plain.network_bytes >= plain.network_messages * row_bytes
    assert row_bytes > 200 * PIGGYBACK_PACKED_BYTES
