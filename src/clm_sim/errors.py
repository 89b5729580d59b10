"""Exception hierarchy with machine-parsable error codes.

Every error the CLI can surface carries a stable ``code`` string and an
``exit_status``; the CLI prints exactly one line ``error: <code>: <message>``
and exits with the status. Library callers catch the classes directly.
"""

from __future__ import annotations

import dataclasses
import math


class ClmSimError(Exception):
    """Base class for all library errors."""

    code = "ERROR"
    exit_status = 1


class ConfigError(ClmSimError):
    """Scenario configuration failed to parse or validate."""

    code = "CONFIG_INVALID"
    exit_status = 2

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


class FieldError(ValueError):
    """A failed check of one key of a config section; the parser reports it on <section>.<key>."""

    def __init__(self, message, key):
        self.key = key
        super().__init__(message)


def require_finite(obj) -> None:
    """Raise a FieldError naming the first float field of the dataclass obj that is nan or inf."""
    for f in dataclasses.fields(obj):
        if f.type in ("float", float) and not math.isfinite(value := getattr(obj, f.name)):
            raise FieldError(f"{f.name} must be finite, got {value}", f.name)


class PresetError(ClmSimError):
    """Unknown parameter preset name."""

    code = "PRESET_UNKNOWN"
    exit_status = 2


class NoEquilibrium(ClmSimError):
    """Motor equilibrium solve did not converge; operating point infeasible."""

    code = "NO_EQUILIBRIUM"
    exit_status = 3

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (final residual {residual:.3e})"
        super().__init__(message)


class InfeasibleInit(ClmSimError):
    """Requested initial operating point violates model limits."""

    code = "INFEASIBLE_INIT"
    exit_status = 3


class NonFiniteInput(ClmSimError):
    """The bus gave a non-finite V or F at a stage time."""

    code = "NON_FINITE_INPUT"
    exit_status = 4


class NonFiniteState(ClmSimError):
    """Integration produced a non-finite state (instability or bad dt)."""

    code = "NON_FINITE_STATE"
    exit_status = 4

    def __init__(self, message, step=None):
        self.step = step
        if step is not None:
            message = f"{message} (step {step})"
        super().__init__(message)


class GridMismatch(ClmSimError):
    """Trajectory comparison requested on differing time grids."""

    code = "GRID_MISMATCH"
    exit_status = 3


class OutOfRange(ClmSimError):
    """Resample grid extends outside the source trajectory."""

    code = "OUT_OF_RANGE"
    exit_status = 3


class ChannelError(ClmSimError):
    """Requested channel does not exist in the trajectory."""

    code = "CHANNEL_UNKNOWN"
    exit_status = 3


class FileFormatError(ClmSimError):
    """A data file (trajectory CSV, series CSV) failed to parse."""

    code = "FILE_FORMAT"
    exit_status = 3
