"""Host speed: a fixed pure-Python loop, timed between measurements.

A shared host runs the same code up to 2.5x slower in phases of
seconds to minutes; process CPU time grows with it, so neither wall nor
CPU time of a run compares with another run's.  This loop does the same
work every time and does not depend on the program under test, so its
time tracks only the host.  Each measured interval is scaled by
``REFERENCE_S / probe`` (the probes timed right before and after it)
into *reference seconds*: the time the interval would have taken on a
host where the loop takes ``REFERENCE_S``.  A faster program shrinks
its intervals and leaves the loop alone, so the scaled times move with
the program and not with the host.

The loop mixes the interpreter work a simulator does: small-int
arithmetic, list indexing, attribute reads and writes on slotted
objects, dict lookups and stores, and branches.
"""

from __future__ import annotations

import time

#: The loop's time on a calm 2-vCPU x86-64 host, Python 3 (seconds).
#: It only sets the scale of reference seconds.
REFERENCE_S = 0.025


class _Reg:
    __slots__ = ("value", "ready")

    def __init__(self, value: int) -> None:
        self.value = value
        self.ready = 0


#: (op, dest, src a, src b) of the toy register machine.
_PROGRAM = tuple((i % 5, i % 16, (i * 7) % 16, (i * 3) % 16)
                 for i in range(64))


def _work() -> int:
    regs = [_Reg(i) for i in range(16)]
    memory = {}
    cycle = 0
    for _ in range(1000):
        for op, d, a, b in _PROGRAM:
            ra, rb = regs[a], regs[b]
            cycle = max(cycle, ra.ready, rb.ready) + 1
            if op == 0:
                value = ra.value + rb.value
            elif op == 1:
                value = ra.value ^ rb.value
            elif op == 2:
                value = memory.get(ra.value & 255, 0)
            elif op == 3:
                memory[rb.value & 255] = ra.value
                value = ra.value
            else:
                value = (ra.value * 3) & 0xFFFF
            rd = regs[d]
            rd.value = value & 0xFFFFFFFF
            rd.ready = cycle + op
    return cycle


def probe() -> float:
    """Host seconds the fixed loop takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from host seconds to reference seconds for an interval
    between probes that took *before* and *after*."""
    return REFERENCE_S / ((before + after) / 2.0)
