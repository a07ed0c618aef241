"""Seeded violations: entropy draws and wall-clock reads.  Their hints
name the logged forms (``ctx.rng``, ``ctx.now()``, ``ctx.nondet``) that
``nondet_logged_clean.py`` shows verifying clean."""

import os
import random
import time


def main(ctx):
    ctx.potential_checkpoint()
    a = random.random()  # CHECK: RPR020
    b = random.randint(0, 7)  # CHECK: RPR020
    c = os.urandom(4)  # CHECK: RPR020
    t = time.time()  # CHECK: RPR021
    d = time.perf_counter()  # CHECK: RPR021
    return ctx.allreduce(a + b + t + d, op="sum"), c
