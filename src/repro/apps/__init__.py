"""The paper's three benchmark applications (Section 6.1)."""

from repro.apps.dense_cg import CGParams
from repro.apps.laplace import LaplaceParams
from repro.apps.neurosys import NeurosysParams
from repro.apps.stencil3d import Stencil3DParams
from repro.apps.workloads import DEFAULT_CHECKPOINT_INTERVAL

__all__ = [
    "CGParams",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "LaplaceParams",
    "NeurosysParams",
    "Stencil3DParams",
]
