"""Small 3-vector arithmetic in two evaluation modes, with allocation accounting.

The temporary-allocating mode builds a fresh list for every vector-valued
operator, the way naive operator overloading on a dynamic vector type does;
the in-place mode writes results into caller-provided storage and never
touches the allocator.  Both modes execute the same arithmetic expressions in
the same order, so their numeric results are bit-identical.

Allocation accounting is semantic, not an allocator hook: the counter records
one allocation event per vector-valued operator application and one per
named-result binding (``assign``), which makes the accounting portable and
exactly testable.  The temporary-allocating mode still performs real dynamic
acquisitions (a new list per event), so wall-clock allocation overhead is also
observable.  Scalar-valued operators (dot, norm) record no events in either
mode.
"""

from __future__ import annotations

import enum
import math


class AllocationMode(enum.Enum):
    TEMPORARY_ALLOCATING = "temp"
    IN_PLACE = "inplace"


class AllocationCounter:
    """Per-worker event counter; read at region end, never shared live."""

    __slots__ = ("alloc_events",)

    def __init__(self):
        self.alloc_events = 0

    def reset(self) -> None:
        self.alloc_events = 0


class TempAllocVectorOps:
    """Every vector-valued operator allocates fresh storage and records one event.

    The ``out`` arguments are accepted for signature compatibility and ignored,
    mirroring overloaded operators that cannot reuse a destination.
    """

    __slots__ = ("counter",)
    mode = AllocationMode.TEMPORARY_ALLOCATING

    def __init__(self, counter: AllocationCounter):
        self.counter = counter

    def add(self, a, b, out=None):
        self.counter.alloc_events += 1
        return [a[0] + b[0], a[1] + b[1], a[2] + b[2]]

    def sub(self, a, b, out=None):
        self.counter.alloc_events += 1
        return [a[0] - b[0], a[1] - b[1], a[2] - b[2]]

    def scale(self, s, a, out=None):
        self.counter.alloc_events += 1
        return [s * a[0], s * a[1], s * a[2]]

    def dot(self, a, b) -> float:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def norm(self, a) -> float:
        return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])

    def assign(self, dst, src) -> None:
        """Bind a result to a named destination: one fresh copy, one event."""
        self.counter.alloc_events += 1
        tmp = [src[0], src[1], src[2]]
        dst[0] = tmp[0]
        dst[1] = tmp[1]
        dst[2] = tmp[2]


class InPlaceVectorOps:
    """Operators write into caller-provided storage; zero allocation events."""

    __slots__ = ("counter",)
    mode = AllocationMode.IN_PLACE

    def __init__(self, counter: AllocationCounter):
        self.counter = counter

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

    def dot(self, a, b) -> float:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def norm(self, a) -> float:
        return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])

    def assign(self, dst, src) -> None:
        dst[0] = src[0]
        dst[1] = src[1]
        dst[2] = src[2]


def vector_ops(mode: AllocationMode, counter: AllocationCounter):
    """Ops facade for the given mode, bound to a per-worker counter."""
    if mode is AllocationMode.TEMPORARY_ALLOCATING:
        return TempAllocVectorOps(counter)
    if mode is AllocationMode.IN_PLACE:
        return InPlaceVectorOps(counter)
    raise ValueError(f"unknown allocation mode {mode!r}")

