"""Run-level configuration: variants, intervals, simulator knobs.

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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.protocol.stages.registry import StackSpec, variant_stack
from repro.simmpi.clock import CostModel


class Variant(enum.Enum):
    UNMODIFIED = "unmodified"
    PIGGYBACK = "piggyback"
    NO_APP_STATE = "no-app-state"
    FULL = "full"

    @classmethod
    def coerce(cls, value: "Variant | str") -> "Variant":
        """Accept a :class:`Variant` or its string spelling.

        Strings match either the enum value (``"no-app-state"``) or the
        member name in any case (``"NO_APP_STATE"``, ``"full"``) —
        mirroring how ``Session.run`` accepts registered app names in
        place of app objects.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                try:
                    return cls[value.upper().replace("-", "_")]
                except KeyError:
                    known = ", ".join(v.value for v in cls)
                    raise ConfigError(
                        f"unknown variant {value!r}; known: {known}"
                    ) from None
        raise ConfigError(f"not a variant: {value!r}")

    @property
    def paper_name(self) -> str:
        return {
            Variant.UNMODIFIED: "Unmodified Program",
            Variant.PIGGYBACK: "Using Protocol Layer, No Checkpoints",
            Variant.NO_APP_STATE: "Checkpointing, No Application State",
            Variant.FULL: "Full Checkpoints",
        }[self]


@dataclass
class RunConfig:
    """Everything needed to execute one application under the driver."""

    nprocs: int
    seed: int = 0
    variant: Variant = Variant.FULL
    #: Explicit stage-stack name (overrides the variant→stack mapping).
    #: Any name registered with :func:`repro.protocol.register_stack`
    #: works — this is how custom user-defined variants are run.
    stack: Optional[str] = None
    #: Virtual-time distance between checkpoint waves (paper: 30 s).
    checkpoint_interval: Optional[float] = 0.030
    codec: str = "packed"
    storage_path: Optional[str] = None
    #: Checkpoint-storage engine knobs (see :mod:`repro.ckpt`): chunk
    #: compression codec ("none", "zlib", "lzma", or anything registered
    #: with :func:`repro.ckpt.register_chunk_codec`), …
    ckpt_codec: str = "none"
    #: … incremental snapshots (dedupe chunks against prior generations), …
    ckpt_incremental: bool = True
    #: … retention (keep the newest K generations, plus every Nth epoch —
    #: keep_last >= 2 enables fallback to generation N-1 when the newest
    #: committed generation is torn or corrupt), …
    ckpt_keep_last: int = 1
    ckpt_keep_every: Optional[int] = None
    #: … and the content-addressing granularity: how a segment is cut, only.
    ckpt_chunk_size: int = 65536
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
    #: (refuse to run an app with error-severity findings).  The
    #: ``check=`` argument of :meth:`repro.Session.run` overrides this.
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
        if self.ckpt_keep_every is not None and self.ckpt_keep_every < 1:
            raise ConfigError("ckpt_keep_every must be >= 1 or None")
        if self.ckpt_chunk_size < 1:
            raise ConfigError("ckpt_chunk_size must be positive")
        if self.trace_buffer is not None and self.trace_buffer < 1:
            raise ConfigError("trace_buffer must be >= 1 or None")

    def stack_spec(self) -> StackSpec:
        """The declared stage stack for this run.

        ``stack`` (a registered stack name) wins when set; otherwise the
        variant maps onto its canonical V0–V3 stack.
        """
        if self.stack is not None:
            return variant_stack(self.stack)
        return variant_stack(_VARIANT_STACK_NAMES[self.variant])

    @property
    def checkpointing_active(self) -> bool:
        return "checkpoint" in self.stack_spec().stages and (
            self.checkpoint_interval is not None
        )


#: Canonical variant → stack-name mapping (Section 6.2).
_VARIANT_STACK_NAMES = {
    Variant.UNMODIFIED: "V0",
    Variant.PIGGYBACK: "V1",
    Variant.NO_APP_STATE: "V2",
    Variant.FULL: "V3",
}
