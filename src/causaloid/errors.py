"""Exception types raised across the package, and its one file reader and writer.

Every failure mode that callers are expected to handle gets its own class so
CLI exit-code mapping and tests can discriminate without string matching.
Every file is read and written through ``read_text``, ``read_json`` and
``write_text``: one that cannot be opened, read or written is an ``IoError``;
one that is not UTF-8, not JSON or nested too deeply to decode is a
``SchemaError`` naming the file.
"""
from __future__ import annotations

import json

__all__ = [
    "CausaloidError",
    "SchemaError",
    "IoError",
    "BackendError",
    "DimensionMismatch",
    "UnknownRegion",
    "UnknownLabel",
    "UnknownExterior",
    "UnknownProcedure",
    "UnknownEntry",
    "MissingEntry",
    "ContextMismatch",
    "IncompleteTable",
    "TableTooLarge",
    "NumericalError",
    "ResidualTooLarge",
    "SingularTransform",
    "SpanDeficient",
    "DegenerateExterior",
    "ZeroConditionCount",
    "ZeroDenominator",
    "ZeroDenominatorVector",
    "RuleInapplicable",
]


class CausaloidError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(CausaloidError):
    """A document (scenario, causaloid, report) violates its schema."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class IoError(CausaloidError):
    """A file could not be read or written."""


class BackendError(CausaloidError):
    """Instrument, preparation, or effect data is not physically valid."""


class DimensionMismatch(CausaloidError):
    """Operator shapes are inconsistent with the declared system size."""


class UnknownRegion(CausaloidError):
    """A region is not part of the object it is used with."""


class UnknownLabel(CausaloidError):
    """A measurement label is outside the region's label set."""


class UnknownExterior(CausaloidError):
    """An exterior-configuration index is out of range."""


class UnknownProcedure(CausaloidError):
    """An action index is outside the instrument family."""


class UnknownEntry(CausaloidError):
    """A diagram expression references an entry the causaloid lacks."""


class MissingEntry(CausaloidError):
    """No compression matrix is stored for a key and no rule applies."""


class ContextMismatch(CausaloidError):
    """Vectors or entries built over different fiducial sets were combined."""


class IncompleteTable(CausaloidError):
    """A probability table does not cover the requested region."""


class TableTooLarge(CausaloidError):
    """A requested table would exceed the configured entry cap."""


class NumericalError(CausaloidError):
    """A numerical decision failed: rank, residual, singular transform,
    degenerate exterior or a vanishing denominator. The CLI exits 3."""


class ResidualTooLarge(NumericalError):
    """A row could not be reconstructed from the fiducial rows."""


class SingularTransform(NumericalError):
    """A fiducial-set change requires inverting an ill-conditioned block."""


class SpanDeficient(NumericalError):
    """The declared exterior set does not span the reachable state space."""


class DegenerateExterior(NumericalError):
    """A joint table has no exterior variation to compress against."""


class ZeroConditionCount(CausaloidError):
    """No sampled stack matches the conditioning event."""


class ZeroDenominator(NumericalError):
    """A conditional is requested on an event of probability zero."""


class ZeroDenominatorVector(NumericalError):
    """The heralding denominator vector vanishes."""


class RuleInapplicable(CausaloidError):
    """A meta-compression rule cannot be applied to the given causaloid."""


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text at byte {exc.start}", str(path)) from exc


def read_json(path):
    """The JSON value in the file at ``path``."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"{path}:{exc.lineno}:{exc.colno}"
        raise SchemaError(f"not valid JSON: {exc.msg}", where) from exc
    except RecursionError as exc:
        raise SchemaError("JSON nested too deeply to decode", str(path)) from exc


def write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
