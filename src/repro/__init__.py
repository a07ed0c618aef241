"""repro: reproduction of *Automated Application-level Checkpointing of MPI
Programs* (Bronevetsky, Marques, Pingali, Stodghill — PPoPP 2003).

Public API (stable)
-------------------
``repro.Session``
    Experiment facade: ``session.run(app, config)`` and
    ``session.sweep(app, config, variants=..., seeds=..., nprocs=...)``.
``repro.RunConfig`` / ``repro.Variant``
    Run configuration and the four build variants of Section 6.2.
``repro.app`` / ``repro.AppSpec``
    Application registration (generator ``main(ctx)`` functions and
    precompiled units alike).
``repro.CommLike`` / ``repro.RawCommAdapter``
    The messaging surface applications are written against, and its V0
    pass-through implementation (V1–V3 use the C3 protocol layer).

Subpackages
-----------
``repro.api``
    The facade itself: Session/sweep, CommLike, the app registry.
``repro.simmpi``
    Deterministic MPI simulator substrate (ranks, network, faults).
``repro.protocol``
    The C3 non-blocking coordinated checkpointing protocol (Figure 4),
    piggybacking, logging, recovery, and MPI-library state virtualisation.
``repro.precompiler``
    Source-to-source transformation that makes Python functions save and
    restore their own stack state (the CCIFT precompiler analogue).
``repro.ckpt``
    Tiered checkpoint storage engine: pluggable backends, compression
    codecs, incremental (content-addressed) generations, retention
    policies, crash-consistent two-phase commit.
``repro.statesave``
    Managed heap, globals registry, checkpoint assembly, stable storage
    (a facade over ``repro.ckpt``).
``repro.runtime``
    The run -> fail -> restart orchestration driver and application context.
``repro.apps``
    The paper's three benchmark applications (dense CG, Laplace, Neurosys).
``repro.bench``
    The four-variant overhead harness that regenerates Figure 8.
``repro.farm``
    Cached, resumable campaign execution: content-addressed result cache
    + durable job queue under ``Session.sweep`` and chaos campaigns
    (``repro-farm run | status | gc``).
"""

from repro.api import (
    AppSpec,
    CommLike,
    RawCommAdapter,
    Session,
    SweepResult,
    app,
    get_app,
    list_apps,
    register,
)
from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import RunOutcome

__version__ = "1.2.0"

__all__ = [
    "AppSpec",
    "CommLike",
    "RawCommAdapter",
    "RunConfig",
    "RunOutcome",
    "Session",
    "SweepResult",
    "Variant",
    "__version__",
    "app",
    "get_app",
    "list_apps",
    "register",
]

