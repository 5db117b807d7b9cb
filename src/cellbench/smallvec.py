"""3-vector arithmetic in two evaluation modes, with allocation accounting.

An operand is one 3-vector or an array of them (last axis 3).  The
temporary-allocating mode returns a fresh array from every vector-valued
operator, the way naive operator overloading on a dynamic vector type does;
the in-place mode writes results into caller-provided ``out`` arrays and
never touches the allocator.  Both modes run the same ufuncs on the same
operands in the same order, so their numeric results are bit-identical.

Allocation accounting is semantic, not an allocator hook: the temporary mode
counts one allocation event per 3-vector that a vector-valued operator
produces into the ``alloc_events`` of the stats record it is bound to (inside
a dispatch, the worker's ``parallel.WorkerStats``).  The count follows from
the array sizes, so an operator over k vectors counts what k scalar
operators would, which makes the accounting portable and exactly testable.
The temporary mode still performs real dynamic acquisitions (a new array per
operator), so wall-clock allocation overhead is also observable.  The
scalar-valued ``norm`` records no events in either mode.

``add_at`` adds 3-vectors into rows of an array in place, in array order,
which is the scalar program's ``acc = acc + term``, and counts what that
program would: one event per term added and one per row that gets its first
term, ``v = acc``.  ``shared`` counts the displacements and products a pair
kernel derives from a pair's other direction instead of computing them, as
the scalar program computes each.
"""

from __future__ import annotations

import enum

import numpy as np


class AllocationMode(enum.Enum):
    TEMPORARY_ALLOCATING = "temp"
    IN_PLACE = "inplace"


def norm(a):
    """Euclidean length of each 3-vector, summed as a0*a0 + a1*a1 + a2*a2."""
    a = np.asarray(a)
    sq = a * a
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def _add_at(out, rows, terms, subtract: bool) -> None:
    """out[rows[k]] += terms[k], or -= with `subtract`, for k in array order.

    `np.add.at` adds each term onto what its row holds, one at a time and in
    array order, so a row's sum from 0.0 is the scalar program's
    0.0 + t0 + t1 + ..., however its terms are interleaved with those of
    other rows or split over calls; x - t is exactly x + (-t).  One call per
    component: `ufunc.at` over whole rows takes numpy's slow path.
    """
    ufunc = np.subtract if subtract else np.add
    for k in range(3):
        ufunc.at(out[:, k], rows, terms[:, k])


def _per_vector(s):
    """A scale factor, or one per vector, shaped to broadcast over the last axis."""
    return np.asarray(s)[..., None]


class TempAllocVectorOps:
    """Every vector-valued operator allocates fresh storage and records its events.

    The ``out`` arguments are accepted for signature compatibility and ignored,
    mirroring overloaded operators that cannot reuse a destination.
    """

    __slots__ = ("stats", "_bound")

    def __init__(self, stats):
        self.stats = stats
        self._bound = None

    def _fresh(self, result: np.ndarray) -> np.ndarray:
        self.stats.alloc_events += result.size // 3
        return result

    def sub(self, a, b, out=None):
        return self._fresh(np.subtract(a, b))

    def scale(self, s, a, out=None):
        return self._fresh(np.multiply(_per_vector(s), a))

    def shared(self, count: int) -> None:
        """Record the events of `count` vectors that a pair kernel derives
        from a pair's other direction instead of computing: the scalar
        program computes each."""
        self.stats.alloc_events += count

    def add_at(self, out, rows, terms, subtract: bool = False) -> None:
        """Add the terms into rows of `out` in place, in array order: one
        event per term, and one per row of `out` that gets its first term
        from these ops.  The ops of one chunk add into one `out`; a mask
        marks its rows that have a term, so the count holds no list of
        them."""
        if self._bound is None:
            self._bound = np.zeros(len(out), dtype=bool)
        before = np.count_nonzero(self._bound)
        self._bound[rows] = True
        self.stats.alloc_events += len(terms) + int(np.count_nonzero(self._bound) - before)
        _add_at(out, rows, terms, subtract)


class InPlaceVectorOps:
    """Operators write into caller-provided storage; zero allocation events."""

    __slots__ = ("stats",)

    def __init__(self, stats):
        self.stats = stats

    def sub(self, a, b, out):
        return np.subtract(a, b, out=out)

    def scale(self, s, a, out):
        return np.multiply(_per_vector(s), a, out=out)

    def shared(self, count: int) -> None:
        pass

    def add_at(self, out, rows, terms, subtract: bool = False) -> None:
        _add_at(out, rows, terms, subtract)


def vector_ops(mode: AllocationMode, stats):
    """Ops facade for the given mode, counting into `stats.alloc_events`."""
    if mode is AllocationMode.TEMPORARY_ALLOCATING:
        return TempAllocVectorOps(stats)
    if mode is AllocationMode.IN_PLACE:
        return InPlaceVectorOps(stats)
    raise ValueError(f"unknown allocation mode {mode!r}")
