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

``sum_segments`` adds the 3-vectors of each segment from 0.0 in array
order, one ``np.bincount`` per component, and counts what the scalar
program ``acc = acc + term`` per term, then ``v = acc`` per non-empty
segment, would: one event per term and one per non-empty segment.
``shared`` counts the displacements a pair kernel derives from a pair's
other direction instead of computing them, as the scalar program computes
each.
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


def segment_sums(terms, segment, segments: int) -> np.ndarray:
    """Sum of each segment's terms, 0.0 + t0 + t1 + ... in array order.

    Term k belongs to segment `segment[k]`.  A weighted `np.bincount` adds
    each weight into its bin, from 0.0 and in array order, which is the
    scalar program's `acc = acc + term`; so a segment's terms may be
    interleaved with those of others, and only their order among
    themselves counts.
    """
    out = np.empty((segments, 3))
    for k in range(3):
        out[:, k] = np.bincount(segment, terms[:, k], segments)
    return out


def _per_vector(s):
    """A scale factor, or one per vector, shaped to broadcast over the last axis."""
    return np.asarray(s)[..., None]


class TempAllocVectorOps:
    """Every vector-valued operator allocates fresh storage and records its events.

    The ``out`` arguments are accepted for signature compatibility and ignored,
    mirroring overloaded operators that cannot reuse a destination.
    """

    __slots__ = ("stats",)

    def __init__(self, stats):
        self.stats = stats

    def _fresh(self, result: np.ndarray) -> np.ndarray:
        self.stats.alloc_events += result.size // 3
        return result

    def sub(self, a, b, out=None):
        return self._fresh(np.subtract(a, b))

    def scale(self, s, a, out=None):
        return self._fresh(np.multiply(_per_vector(s), a))

    def shared(self, count: int) -> None:
        """Record the events of `count` displacements that a pair kernel
        shares between a pair's two directions instead of computing: the
        scalar program computes each."""
        self.stats.alloc_events += count

    def sum_segments(self, terms, segment, segments: int) -> np.ndarray:
        """`segment_sums`, bound to fresh results: one event per term added
        and one per segment that has a term."""
        self.stats.alloc_events += len(terms) + int(np.count_nonzero(
            np.bincount(segment, minlength=segments)))
        return segment_sums(terms, segment, segments)


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

    def sum_segments(self, terms, segment, segments: int) -> np.ndarray:
        return segment_sums(terms, segment, segments)


def vector_ops(mode: AllocationMode, stats):
    """Ops facade for the given mode, counting into `stats.alloc_events`."""
    if mode is AllocationMode.TEMPORARY_ALLOCATING:
        return TempAllocVectorOps(stats)
    if mode is AllocationMode.IN_PLACE:
        return InPlaceVectorOps(stats)
    raise ValueError(f"unknown allocation mode {mode!r}")
