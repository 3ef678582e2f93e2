"""Host-speed calibration of the measured loops.

A shared host runs this benchmark at a speed that wanders by up to a
factor of two over tens of seconds, in phases longer than a run, so the
wall time of one run says as much about the host as about the program.
The clock below runs a fixed reference kernel between measured items,
for a fixed share of the measured time, and reports throughput scaled
to a host on which one reference unit takes NOMINAL_UNIT_S. The kernel
is numpy on small arrays, like the program's per-step work, and lives
here, so a change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one reference unit takes on the nominal host; a fixed scale
# (on the 2-vCPU host of the baseline in BASELINE.md a unit took 2.0-3.4
# ms). Changing it rescales every recorded baseline.
NOMINAL_UNIT_S = 0.003
# Reference time as a share of measured time.
SHARE = 0.2
_ITERATIONS = 60


class HostClock:
    """Accumulates measured item time and interleaved reference time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((8, 64))
        self._w = rng.standard_normal((64, 64)) / 8.0
        self._k = rng.standard_normal((24, 64))
        self.work_s = 0.0
        self.ref_s = 0.0
        self.units = 0

    def _unit(self):
        """One reference unit: a tiny attention and feed-forward block."""
        x, w, k = self._x, self._w, self._k
        for _ in range(_ITERATIONS):
            s = (x @ w) @ k.T / 8.0
            s = np.exp(s - s.max(axis=-1, keepdims=True))
            s /= s.sum(axis=-1, keepdims=True)
            h = x + np.tanh(s @ k)
            mu = h.mean(axis=-1, keepdims=True)
            x = (h - mu) / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)
        return x

    def after_item(self, item_s):
        """Count one measured item's time, then run reference units until
        they have taken SHARE of all measured time so far."""
        self.work_s += item_s
        clock = time.perf_counter
        while self.ref_s < SHARE * self.work_s:
            t = clock()
            self._unit()
            self.ref_s += clock() - t
            self.units += 1

    def host_speed(self):
        """Nominal over measured reference time: 1.0 on the nominal host,
        below 1 on a slower one."""
        if not self.units:
            return 1.0
        return NOMINAL_UNIT_S * self.units / self.ref_s

    def per_nominal_s(self, count):
        """`count` items over the measured time, scaled to the nominal
        host."""
        return count / self.work_s / self.host_speed()

    def record(self):
        return {"work_s": self.work_s, "reference_s": self.ref_s,
                "reference_units": self.units,
                "reference_unit_ms": (self.ref_s / self.units * 1e3
                                      if self.units else None),
                "host_speed": self.host_speed()}
