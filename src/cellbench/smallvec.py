"""Small 3-vector arithmetic in two evaluation modes, with allocation accounting.

The temporary-allocating mode builds a fresh list for every vector-valued
operator, the way naive operator overloading on a dynamic vector type does;
the in-place mode writes results into caller-provided storage and never
touches the allocator.  Both modes execute the same arithmetic expressions in
the same order, so their numeric results are bit-identical.

Allocation accounting is semantic, not an allocator hook: the temporary mode
counts one allocation event per vector-valued operator application and one per
named-result binding (``assign``) into the ``alloc_events`` of the stats record
it is bound to (inside a dispatch, the worker's ``parallel.WorkerStats``), which
makes the accounting portable and exactly testable.  The temporary mode still
performs real dynamic acquisitions (a new list per event), so wall-clock
allocation overhead is also observable.  The scalar-valued ``norm`` records no
events in either mode.
"""

from __future__ import annotations

import enum
import math


class AllocationMode(enum.Enum):
    TEMPORARY_ALLOCATING = "temp"
    IN_PLACE = "inplace"


class TempAllocVectorOps:
    """Every vector-valued operator allocates fresh storage and records one event.

    The ``out`` arguments are accepted for signature compatibility and ignored,
    mirroring overloaded operators that cannot reuse a destination.
    """

    __slots__ = ("stats",)

    def __init__(self, stats):
        self.stats = stats

    def add(self, a, b, out=None):
        self.stats.alloc_events += 1
        return [a[0] + b[0], a[1] + b[1], a[2] + b[2]]

    def sub(self, a, b, out=None):
        self.stats.alloc_events += 1
        return [a[0] - b[0], a[1] - b[1], a[2] - b[2]]

    def scale(self, s, a, out=None):
        self.stats.alloc_events += 1
        return [s * a[0], s * a[1], s * a[2]]

    def norm(self, a) -> float:
        return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])

    def assign(self, dst, src) -> None:
        """Bind a result to a named destination: one fresh copy, one event."""
        self.stats.alloc_events += 1
        tmp = [src[0], src[1], src[2]]
        dst[0] = tmp[0]
        dst[1] = tmp[1]
        dst[2] = tmp[2]


class InPlaceVectorOps:
    """Operators write into caller-provided storage; zero allocation events."""

    __slots__ = ("stats",)

    def __init__(self, stats):
        self.stats = stats

    def add(self, a, b, out):
        out[0] = a[0] + b[0]
        out[1] = a[1] + b[1]
        out[2] = a[2] + b[2]
        return out

    def sub(self, a, b, out):
        out[0] = a[0] - b[0]
        out[1] = a[1] - b[1]
        out[2] = a[2] - b[2]
        return out

    def scale(self, s, a, out):
        out[0] = s * a[0]
        out[1] = s * a[1]
        out[2] = s * a[2]
        return out

    def norm(self, a) -> float:
        return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])

    def assign(self, dst, src) -> None:
        dst[0] = src[0]
        dst[1] = src[1]
        dst[2] = src[2]


def vector_ops(mode: AllocationMode, stats):
    """Ops facade for the given mode, counting into `stats.alloc_events`."""
    if mode is AllocationMode.TEMPORARY_ALLOCATING:
        return TempAllocVectorOps(stats)
    if mode is AllocationMode.IN_PLACE:
        return InPlaceVectorOps(stats)
    raise ValueError(f"unknown allocation mode {mode!r}")

