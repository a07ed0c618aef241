"""Workload catalogue: the registered gallery apps and the scaled defaults.

The paper evaluated on 16 nodes of the Cornell Velocity cluster with a
30-second checkpoint interval.  A pure-Python simulator cannot turn the
same absolute sizes around in benchmark time, so every experiment runs a
scaled configuration chosen to preserve the *ratios* the paper's analysis
hinges on: application-state size relative to message volume (dense CG),
message size relative to piggyback size (Laplace), and collective count
relative to computation (Neurosys).  The committed four-variant record
and its problem sizes are described in ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

from repro.api.registry import AppSpec
from repro.apps import dense_cg, laplace, neurosys, stencil3d

#: The registered application catalogue (importing this module registers
#: every gallery application; :func:`repro.get_app` autoloads it).
APP_SPECS: dict[str, AppSpec] = {
    "dense_cg": dense_cg.SPEC,
    "laplace": laplace.SPEC,
    "neurosys": neurosys.SPEC,
    "stencil3d": stencil3d.SPEC,
}

#: The paper's checkpoint interval was 30 s of wall time; the simulated
#: interval is chosen so several waves complete within each benchmark run.
DEFAULT_CHECKPOINT_INTERVAL = 0.004

#: Storage-engine profile for the scaled runs (see :mod:`repro.ckpt`).
#: Measured sweet spot for the scaled float-heavy states: zlib recovers
#: 25-60% of the bytes at tolerable serialisation cost (lzma compresses
#: harder but its latency distorts the overhead charts).
SCALED_CKPT_CODEC = "zlib"
