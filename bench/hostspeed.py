"""A reference kernel that the benchmark's timings are scaled by.

On a shared host the same Python code can run up to 1.7 times faster or
slower for tens of seconds at a time, with CPU time tracking wall time, so
a whole run can fall inside one fast or slow phase. The benchmark therefore
times this fixed kernel next to the program and reports every timing at
the speed at which the kernel takes ``NOMINAL_S``::

    scaled = wall * NOMINAL_S / kernel_s

A change to orthonet moves ``wall`` only: the kernel uses nothing from
orthonet. It is built like the program's hot loop, recursive evaluation of
a fixed expression tree of Python objects over floats, with attribute
access, method calls, dict lookups and calls into ``math``. It creates no
container objects, so it never starts the garbage collector and does not
collect garbage that the program left behind.
"""

from __future__ import annotations

import math
import statistics
import time

# kernel time, in seconds, that scaled timings are stated at; about what the
# kernel takes on a 2-vCPU Intel Xeon VM at its usual speed
NOMINAL_S = 0.003
# each op is scaled by the median kernel time over the op and this many
# neighbours on either side
HALF_WINDOW = 4
_POINTS = 32


class _Node:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind, a, b=None):
        self.kind = kind
        self.a = a
        self.b = b

    def value(self, env):
        kind = self.kind
        if kind == "x":
            return env[self.a]
        if kind == "c":
            return self.a
        if kind == "+":
            return self.a.value(env) + self.b.value(env)
        if kind == "*":
            return self.a.value(env) * self.b.value(env)
        if kind == "tanh":
            return math.tanh(self.a.value(env))
        return math.sin(self.a.value(env))


def _tree(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node("x", "xyz"[k % 3]) if k % 2 else _Node("c", 0.37 + 0.01 * k)
    kind = ("+", "*", "tanh", "sin")[(depth + k) % 4]
    if kind in ("+", "*"):
        return _Node(kind, _tree(depth - 1, 2 * k), _tree(depth - 1, 2 * k + 1))
    return _Node(kind, _tree(depth - 1, 2 * k))


_TREE = _tree(12, 1)
_ENVS = [{"x": 0.01 * i, "y": 0.3 - 0.02 * i, "z": -0.2} for i in range(_POINTS)]


def kernel() -> float:
    """Evaluate the fixed tree at a fixed set of points."""
    acc = 0.0
    for env in _ENVS:
        acc += _TREE.value(env)
    return acc


def time_kernel() -> float:
    """Wall time of one kernel call, in seconds."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def scaled(walls, kernels):
    """Each wall time scaled by the median kernel time around it."""
    n = len(kernels)
    out = []
    for i, wall in enumerate(walls):
        near = kernels[max(0, i - HALF_WINDOW):min(n, i + HALF_WINDOW + 1)]
        out.append(wall * NOMINAL_S / statistics.median(near))
    return out
