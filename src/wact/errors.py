"""Exception types shared across the package."""

from __future__ import annotations


class WactError(Exception):
    """Base class for all package errors."""


class ParseError(WactError):
    """Malformed expression source.  Carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class UnknownSymbolError(ParseError):
    """Identifier that is neither a chart coordinate, constant, nor function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown symbol '{name}'", position)
        self.name = name


class DomainError(WactError):
    """Evaluation left the real domain (log of non-positive, division by zero, ...).

    `index` is the position of the first offending point in the evaluated
    block of sample points, or None when a single point was evaluated.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.message = message
        self.index = index


class SingularMetricError(WactError):
    """Metric value is not symmetric positive definite at the requested point."""


class UnsupportedValenceError(WactError):
    """Operation does not support tensors of this valence."""


class NotAntisymmetricError(WactError):
    """A 2-form argument is not antisymmetric."""


class AxiomViolationError(WactError):
    """Structure validation failed.

    Attributes mirror the first failing row; `rows` holds every failing row as
    (axiom id, worst point, residual value).
    """

    def __init__(self, rows):
        self.rows = list(rows)
        axiom, point, residual = self.rows[0]
        self.axiom = axiom
        self.point = point
        self.residual = residual
        lines = ", ".join(f"{a} (residual {r:.3e})" for a, _, r in self.rows)
        super().__init__(f"axiom violation: {lines}")


class UnknownCheckIdError(WactError):
    """Check id not present in the verification registry."""


class NotWeakSasakianError(WactError):
    """Sasakian extraction preconditions failed."""

    def __init__(self, condition: str, residual: float):
        super().__init__(f"not weak Sasakian: {condition} (residual {residual:.3e})")
        self.condition = condition
        self.residual = residual


class RankDeficientError(WactError):
    """Plane tensor does not have full rank at a sample point."""


class NotParallelError(WactError):
    """Plane tensor is not parallel with respect to the plane metric."""


class ValidationFailedError(WactError):
    """Constructed structure failed a compatibility precondition."""


class NotContactMetricError(WactError):
    """Operation requires a weak contact metric structure."""


class FileFormatError(WactError):
    """Structure file is syntactically valid JSON but violates the schema."""


class EngineInconsistencyError(WactError):
    """Two internally guaranteed-equivalent computations disagreed."""
