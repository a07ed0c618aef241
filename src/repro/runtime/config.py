"""Run-level configuration: variants, intervals, simulator and storage knobs.

A :class:`RunConfig` is the whole configuration of one run: the session,
the driver and a sweep read every setting from it, and the run's stable
storage is :meth:`Storage.from_config(config)
<repro.statesave.storage.Storage.from_config>` unless the caller hands
one in.

:class:`Variant` captures the four build configurations of the paper's
evaluation (Section 6.2):

========  ==========================================  =======================
Variant   Paper name                                  Configuration
========  ==========================================  =======================
V0        "Unmodified Program"                        no piggyback, no
                                                      protocol, no checkpoints
V1        "Using Protocol Layer, No Checkpoints"      piggyback + protocol
                                                      layer, no waves
V2        "Checkpointing, No Application State"       full protocol, app
                                                      state omitted
V3        "Full Checkpoints"                          everything
========  ==========================================  =======================

The variant is the only selector of which protocol concerns run: V0 runs
the application over :class:`~repro.api.comms.RawCommAdapter`, V1 over a
:class:`~repro.protocol.stages.pipeline.ProtocolPipeline` built without a
storage, and V2/V3 over one handed the run's storage (which adds the
checkpoint stage).  :meth:`Variant.coerce` is the one table of spellings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.simmpi.clock import CostModel


class Variant(enum.Enum):
    UNMODIFIED = "unmodified"
    PIGGYBACK = "piggyback"
    NO_APP_STATE = "no-app-state"
    FULL = "full"

    @classmethod
    def coerce(cls, value: "Variant | str") -> "Variant":
        """Accept a :class:`Variant` or its string spelling.

        Strings match the paper label (``"V0"``–``"V3"``), the enum value
        (``"no-app-state"``) or the member name in any case
        (``"NO_APP_STATE"``, ``"full"``) — mirroring how ``Session.run``
        accepts registered app names in place of app objects.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            key = value.upper().replace("-", "_")  # "no-app-state" -> NO_APP_STATE
            for member in cls:
                if key in (member.label, member.name):
                    return member
            known = ", ".join(f"{v.label}/{v.value}" for v in cls)
            raise ConfigError(f"unknown variant {value!r}; known: {known}")
        raise ConfigError(f"not a variant: {value!r}")

    @property
    def label(self) -> str:
        """The paper-table label: ``"V0"``–``"V3"`` in Section 6.2 order."""
        return f"V{list(Variant).index(self)}"

    @property
    def checkpoints(self) -> bool:
        """Whether the variant runs the checkpoint stage (V2 and V3)."""
        return self in (Variant.NO_APP_STATE, Variant.FULL)


@dataclass
class RunConfig:
    """Everything needed to execute one application under the driver."""

    nprocs: int
    seed: int = 0
    variant: Variant = Variant.FULL
    #: Virtual-time distance between checkpoint waves (paper: 30 s).
    checkpoint_interval: Optional[float] = 0.030
    #: Directory of the run's checkpoint store; None stores in memory.
    storage_path: Optional[str] = None
    #: Retention: keep the newest K generations (keep_last >= 2 enables
    #: fallback to generation N-1 when the newest committed generation is
    #: torn or corrupt).
    ckpt_keep_last: int = 1
    max_restarts: int = 16
    sched_policy: str = "random"
    ordering: str = "per_tag_fifo"
    base_delay: float = 5e-6
    jitter: float = 20e-6
    detector_timeout: float = 0.25
    cost_model: CostModel = field(default_factory=CostModel)
    max_slices: int = 20_000_000
    #: Static verification (:mod:`repro.check`) before the run: ``"off"``
    #: (default), ``"warn"`` (report findings, run anyway) or ``"error"``
    #: (refuse to run an app with error-severity findings).
    check: str = "off"
    #: Arm the :mod:`repro.trace` event bus for this run.  When False
    #: (default) no recorder exists and every emission site is a single
    #: attribute read; when True the outcome carries a
    #: :class:`~repro.trace.TraceRecorder` in ``RunOutcome.trace``.
    trace: bool = False
    #: Ring-buffer capacity for the recorder; ``None`` keeps every event
    #: (what ``repro-trace record`` uses for full exports).
    trace_buffer: Optional[int] = 65536

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.check not in ("off", "warn", "error"):
            raise ConfigError(
                f"check must be 'off', 'warn' or 'error', got {self.check!r}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigError("checkpoint_interval must be positive or None")
        if self.ckpt_keep_last < 1:
            raise ConfigError("ckpt_keep_last must be >= 1")
        if self.trace_buffer is not None and self.trace_buffer < 1:
            raise ConfigError("trace_buffer must be >= 1 or None")

    @property
    def checkpointing_active(self) -> bool:
        return self.variant.checkpoints and self.checkpoint_interval is not None
