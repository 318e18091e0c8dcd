"""Shared error types mapped onto process exit codes by the CLI."""

from __future__ import annotations

__all__ = ["HypothesisError", "NumericalError", "ConfigError", "exit_code_for"]


class HypothesisError(RuntimeError):
    """A structural hypothesis required by a computation does not hold."""


class NumericalError(RuntimeError):
    """A solver or quadrature failed to certify its result."""


class ConfigError(ValueError):
    """Bad configuration, malformed input file, or unparsable expression."""


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, HypothesisError):
        return 2
    if isinstance(exc, NumericalError):
        return 3
    if isinstance(exc, ConfigError):
        return 4
    return 1
