"""Exception types shared across the kernel."""


class CellBenchError(Exception):
    """Base class for all package errors."""


class DomainError(CellBenchError, ValueError):
    """A value lies outside the domain an operation is defined on."""


class NumericError(CellBenchError, ArithmeticError):
    """A numeric kernel hit an invalid state (zero pivot, non-finite field)."""


class ContainerStateError(CellBenchError, RuntimeError):
    """The cell container was used while its spatial index was stale."""


class ConfigError(CellBenchError, ValueError):
    """A run configuration is missing, malformed, or inconsistent."""


class CapacityError(CellBenchError, RuntimeError):
    """A hard cap was exceeded: the cell count, the candidate pairs of the
    pair list, or the cell ids one pair key holds."""


class UndefinedMetricError(CellBenchError, ValueError):
    """An efficiency metric is undefined for the given record (zero denominator)."""


class InconsistentTraceError(CellBenchError, ValueError):
    """A timing record is internally inconsistent (busy time exceeds elapsed)."""

