"""Manual repairs: for every diagnostic whose hint names a repair, the
unrepaired form fires exactly its codes and the repaired form, written
as the hint says, verifies clean."""

import textwrap

import pytest

from repro.check import check_source

#: (id, codes the unrepaired form fires, unrepaired source, repaired source)
REPAIRS = [
    ("rpr020-random-to-ctx-rng", ["RPR020"],
     """
     import random

     def main(ctx):
         ctx.potential_checkpoint()
         a = random.random()
         return ctx.allreduce(a, op="sum")
     """,
     """
     def main(ctx):
         ctx.potential_checkpoint()
         a = ctx.rng.random()
         return ctx.allreduce(a, op="sum")
     """),
    ("rpr020-randint-to-ctx-rng", ["RPR020"],
     """
     import random

     def main(ctx):
         ctx.potential_checkpoint()
         b = random.randint(0, 7)
         return ctx.allreduce(float(b), op="sum")
     """,
     """
     def main(ctx):
         ctx.potential_checkpoint()
         b = ctx.rng.randint(0, 7)
         return ctx.allreduce(float(b), op="sum")
     """),
    ("rpr020-numpy-to-ctx-rng", ["RPR020"],
     """
     import numpy as np

     def main(ctx):
         ctx.potential_checkpoint()
         a = np.random.rand()
         return ctx.allreduce(a, op="sum")
     """,
     """
     def main(ctx):
         ctx.potential_checkpoint()
         a = ctx.rng.random()
         return ctx.allreduce(a, op="sum")
     """),
    ("rpr020-urandom-to-nondet", ["RPR020"],
     """
     import os

     def main(ctx):
         ctx.potential_checkpoint()
         c = os.urandom(4)
         return ctx.allreduce(1.0, op="sum"), c
     """,
     """
     import os

     def main(ctx):
         ctx.potential_checkpoint()
         c = ctx.nondet(lambda: os.urandom(4))
         return ctx.allreduce(1.0, op="sum"), c
     """),
    ("rpr020-uuid-to-nondet", ["RPR020"],
     """
     import uuid

     def main(ctx):
         ctx.potential_checkpoint()
         tag = uuid.uuid4()
         return ctx.allreduce(1.0, op="sum"), tag
     """,
     """
     import uuid

     def main(ctx):
         ctx.potential_checkpoint()
         tag = ctx.nondet(lambda: uuid.uuid4())
         return ctx.allreduce(1.0, op="sum"), tag
     """),
    ("rpr020-secrets-to-nondet", ["RPR020"],
     """
     import secrets

     def main(ctx):
         ctx.potential_checkpoint()
         key = secrets.token_bytes(8)
         return ctx.allreduce(1.0, op="sum"), key
     """,
     """
     import secrets

     def main(ctx):
         ctx.potential_checkpoint()
         key = ctx.nondet(lambda: secrets.token_bytes(8))
         return ctx.allreduce(1.0, op="sum"), key
     """),
    ("rpr021-time-to-ctx-now", ["RPR021"],
     """
     import time

     def main(ctx):
         ctx.potential_checkpoint()
         t = time.time()
         return ctx.allreduce(t, op="sum")
     """,
     """
     def main(ctx):
         ctx.potential_checkpoint()
         t = ctx.now()
         return ctx.allreduce(t, op="sum")
     """),
    ("rpr021-perf-counter-to-ctx-now", ["RPR021", "RPR021"],
     """
     import time

     def main(ctx):
         ctx.potential_checkpoint()
         start = time.perf_counter()
         x = ctx.allreduce(1.0, op="sum")
         return x, time.perf_counter() - start
     """,
     """
     def main(ctx):
         ctx.potential_checkpoint()
         start = ctx.now()
         x = ctx.allreduce(1.0, op="sum")
         return x, ctx.now() - start
     """),
    ("rpr021-monotonic-to-ctx-now", ["RPR021"],
     """
     import time

     def main(ctx):
         ctx.potential_checkpoint()
         t = time.monotonic()
         return ctx.allreduce(t, op="sum")
     """,
     """
     def main(ctx):
         ctx.potential_checkpoint()
         t = ctx.now()
         return ctx.allreduce(t, op="sum")
     """),
    ("rpr021-datetime-to-nondet", ["RPR021"],
     """
     import datetime

     def main(ctx):
         ctx.potential_checkpoint()
         stamp = datetime.datetime.now()
         return ctx.allreduce(1.0, op="sum"), stamp
     """,
     """
     import datetime

     def main(ctx):
         ctx.potential_checkpoint()
         stamp = ctx.nondet(lambda: datetime.datetime.now())
         return ctx.allreduce(1.0, op="sum"), stamp
     """),
    ("rpr030-store-threaded", ["RPR030"],
     """
     CACHE = {}

     def main(ctx):
         ctx.potential_checkpoint()
         x = ctx.allreduce(1.0, op="sum")
         CACHE["x"] = x
         return x
     """,
     """
     def main(ctx):
         cache = {}
         ctx.potential_checkpoint()
         x = ctx.allreduce(1.0, op="sum")
         cache["x"] = x
         return x
     """),
    ("rpr030-store-in-callee-threaded", ["RPR030"],
     """
     RESULTS = {"last": None}

     def record(ctx, value):
         RESULTS["last"] = value
         return ctx.allreduce(value, op="sum")

     def main(ctx):
         ctx.potential_checkpoint()
         return record(ctx, 1.0)
     """,
     """
     def record(ctx, results, value):
         results["last"] = value
         return ctx.allreduce(value, op="sum")

     def main(ctx):
         results = {"last": None}
         ctx.potential_checkpoint()
         return record(ctx, results, 1.0)
     """),
    ("rpr030-mutator-threaded", ["RPR030"],
     """
     HISTORY = []

     def main(ctx):
         ctx.potential_checkpoint()
         x = ctx.allreduce(1.0, op="sum")
         HISTORY.append(x)
         return x
     """,
     """
     def main(ctx):
         history = []
         ctx.potential_checkpoint()
         x = ctx.allreduce(1.0, op="sum")
         history.append(x)
         return x
     """),
    ("rpr030-store-registered", ["RPR030"],
     """
     CACHE = {}

     def main(ctx):
         ctx.potential_checkpoint()
         CACHE["x"] = ctx.allreduce(1.0, op="sum")
         return CACHE["x"]
     """,
     """
     from repro.statesave import checkpointable_state

     CACHE = {}
     checkpointable_state("CACHE")

     def main(ctx):
         ctx.potential_checkpoint()
         CACHE["x"] = ctx.allreduce(1.0, op="sum")
         return CACHE["x"]
     """),
    ("rpr031-list-default-to-none", ["RPR031"],
     """
     def accumulate(ctx, value, history=[]):
         history.append(value)
         return ctx.allreduce(value, op="sum")

     def main(ctx):
         ctx.potential_checkpoint()
         return accumulate(ctx, 1.0)
     """,
     """
     def accumulate(ctx, value, history=None):
         if history is None:
             history = []
         history.append(value)
         return ctx.allreduce(value, op="sum")

     def main(ctx):
         ctx.potential_checkpoint()
         return accumulate(ctx, 1.0)
     """),
    ("rpr031-kwonly-dict-default-to-none", ["RPR031"],
     """
     def tally(ctx, value, *, seen={}):
         seen[value] = True
         return ctx.allreduce(value, op="sum")

     def main(ctx):
         ctx.potential_checkpoint()
         return tally(ctx, 1.0)
     """,
     """
     def tally(ctx, value, *, seen=None):
         if seen is None:
             seen = {}
         seen[value] = True
         return ctx.allreduce(value, op="sum")

     def main(ctx):
         ctx.potential_checkpoint()
         return tally(ctx, 1.0)
     """),
    ("rpr033-alias-threaded", ["RPR033"],
     """
     HISTORY = []

     def main(ctx):
         ctx.potential_checkpoint()
         x = ctx.allreduce(1.0, op="sum")
         log = HISTORY
         log.append(x)
         return x
     """,
     """
     def main(ctx):
         history = []
         ctx.potential_checkpoint()
         x = ctx.allreduce(1.0, op="sum")
         log = history
         log.append(x)
         return x
     """),
    ("rpr033-alias-registered", ["RPR033"],
     """
     HISTORY = []

     def main(ctx):
         ctx.potential_checkpoint()
         x = ctx.allreduce(1.0, op="sum")
         log = HISTORY
         log.append(x)
         return x
     """,
     """
     from repro.statesave import checkpointable_state

     HISTORY = []
     checkpointable_state("HISTORY")

     def main(ctx):
         ctx.potential_checkpoint()
         x = ctx.allreduce(1.0, op="sum")
         log = HISTORY
         log.append(x)
         return x
     """),
]


def check(source: str):
    return check_source(textwrap.dedent(source), file="<test>")


@pytest.mark.parametrize(
    "codes, source",
    [pytest.param(codes, before, id=name)
     for name, codes, before, _ in REPAIRS],
)
def test_unrepaired_form_fires(codes, source):
    result = check(source)
    assert sorted(d.code for d in result.diagnostics) == codes


@pytest.mark.parametrize(
    "source",
    [pytest.param(after, id=name) for name, _, _, after in REPAIRS],
)
def test_repaired_form_verifies_clean(source):
    result = check(source)
    assert [d.render() for d in result.diagnostics] == []
    assert result.suppressed == ()
