"""Workload catalogue: paper problem sizes and their scaled-down analogues.

The paper evaluated on 16 nodes of the Cornell Velocity cluster with a
30-second checkpoint interval.  A pure-Python simulator cannot turn the
same absolute sizes around in benchmark time, so every experiment runs a
scaled configuration chosen to preserve the *ratios* the paper's analysis
hinges on: application-state size relative to message volume (dense CG),
message size relative to piggyback size (Laplace), and collective count
relative to computation (Neurosys).  The mapping is recorded here; the
committed four-variant record is described in ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import AppSpec
from repro.apps import dense_cg, laplace, neurosys, stencil3d
from repro.apps.dense_cg import CGParams
from repro.apps.laplace import LaplaceParams
from repro.apps.neurosys import NeurosysParams
from repro.apps.stencil3d import Stencil3DParams


@dataclass(frozen=True)
class WorkloadPoint:
    """One bar group of Figure 8: a problem size for one application."""

    app: str
    label: str            # the paper's x-axis label
    paper_state: str      # the paper's application-state annotation
    params: object        # scaled parameters actually run


#: Figure 8, left chart: dense CG at 4096², 8192², 16384² (500 iterations).
DENSE_CG_POINTS = (
    WorkloadPoint("dense_cg", "4096x4096", "8.2MB",
                  CGParams(n=128, iterations=60)),
    WorkloadPoint("dense_cg", "8192x8192", "33MB",
                  CGParams(n=256, iterations=60)),
    WorkloadPoint("dense_cg", "16384x16384", "131MB",
                  CGParams(n=512, iterations=60)),
)

#: Figure 8, middle chart: Laplace at 512², 1024², 2048² (40000 iterations).
LAPLACE_POINTS = (
    WorkloadPoint("laplace", "512x512", "138KB",
                  LaplaceParams(n=64, iterations=120)),
    WorkloadPoint("laplace", "1024x1024", "532KB",
                  LaplaceParams(n=128, iterations=120)),
    WorkloadPoint("laplace", "2048x2048", "2.1MB",
                  LaplaceParams(n=256, iterations=120)),
)

#: Figure 8, right chart: Neurosys at 16², 32², 64², 128² (3000 iterations).
#: The scaled grids are chosen so the largest point is genuinely
#: computation-dominated (the mechanism behind the paper's overhead decay):
#: at grid=64 each RK4 stage multiplies a 1024×4096 block.
NEUROSYS_POINTS = (
    WorkloadPoint("neurosys", "16x16", "18KB",
                  NeurosysParams(grid=8, iterations=40)),
    WorkloadPoint("neurosys", "32x32", "75KB",
                  NeurosysParams(grid=16, iterations=40)),
    WorkloadPoint("neurosys", "64x64", "308KB",
                  NeurosysParams(grid=32, iterations=40)),
    WorkloadPoint("neurosys", "128x128", "1.24MB",
                  NeurosysParams(grid=64, iterations=40)),
)

#: Gallery extra (not a Figure 8 chart): the 3D stencil extends the
#: Laplace communication pattern by a dimension and is deliberately
#: split across two source modules to exercise cross-module checking.
STENCIL3D_POINTS = (
    WorkloadPoint("stencil3d", "64x64x64", "4.2MB",
                  Stencil3DParams(n=16, iterations=12)),
    WorkloadPoint("stencil3d", "128x128x128", "33MB",
                  Stencil3DParams(n=24, iterations=12)),
)

ALL_CHARTS = {
    "dense_cg": DENSE_CG_POINTS,
    "laplace": LAPLACE_POINTS,
    "neurosys": NEUROSYS_POINTS,
}

#: The registered application catalogue (importing this module registers
#: every gallery application; :func:`repro.get_app` autoloads it).
APP_SPECS: dict[str, AppSpec] = {
    "dense_cg": dense_cg.SPEC,
    "laplace": laplace.SPEC,
    "neurosys": neurosys.SPEC,
    "stencil3d": stencil3d.SPEC,
}

#: The paper ran 16 processors (of the 64-node CMI cluster).
PAPER_NPROCS = 16

#: Simulator-scale default (collectives are power-of-two friendly).
DEFAULT_NPROCS = 4

#: The paper's checkpoint interval was 30 s of wall time; the simulated
#: interval is chosen so several waves complete within each benchmark run.
DEFAULT_CHECKPOINT_INTERVAL = 0.004

#: Storage-engine profile for the scaled runs (see :mod:`repro.ckpt`).
#: Measured sweet spot for the scaled float-heavy states: zlib recovers
#: 25-60% of the bytes at tolerable serialisation cost (lzma compresses
#: harder but its latency distorts the overhead charts).
SCALED_CKPT_CODEC = "zlib"
