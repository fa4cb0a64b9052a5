"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

import os
import sys

__all__ = [
    "ReproError",
    "ValidationError",
    "NotFittedError",
    "CorrelationError",
    "GenerationError",
    "EstimationError",
    "SimulationError",
    "SimulationWarning",
    "external_stacklevel",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, shape, or value)."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a prior ``fit()`` was called before fitting."""


class CorrelationError(ReproError, ValueError):
    """A correlation structure is invalid (e.g. not positive definite)."""


class GenerationError(ReproError, RuntimeError):
    """Sample-path generation failed (e.g. conditional variance collapsed)."""


class EstimationError(ReproError, RuntimeError):
    """A statistical estimator could not produce a result."""


class SimulationError(ReproError, RuntimeError):
    """A queueing or rare-event simulation failed or was mis-configured."""


class SimulationWarning(UserWarning):
    """A simulation produced a result that is formally valid but suspect.

    Emitted (alongside a metrics counter) when, e.g., every replication
    of a twisted background is retired before the horizon, or an
    importance-sampling estimate finishes with zero overflow hits —
    situations that previously degraded silently to zero-information
    estimates.
    """


# Same spelling as the loader gives code objects' co_filename.
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
_MAIN_SHIM = _PACKAGE_DIR + "__main__.py"


def _is_bootstrap(frame) -> bool:
    """Interpreter start-up code (``<frozen runpy>``) or ``repro/__main__``."""
    filename = frame.f_code.co_filename
    return filename.startswith("<frozen") or filename == _MAIN_SHIM


def external_stacklevel() -> int:
    """The ``stacklevel`` that points a warning at the caller of ``repro``.

    Call it from the function that issues the warning and pass the result
    to :func:`warnings.warn`.  It counts frames up to the first one whose
    code lives outside this package, so the warning names the user's
    line however deep the library call chain (leg runners, search loops)
    is.  Under ``python -m repro`` there is no user frame: the walk then
    stops at the outermost package frame below the interpreter's
    bootstrap, so the warning names ``repro/cli.py``, not
    ``<frozen runpy>``.
    """
    frame = sys._getframe(1)
    level = 1
    while frame is not None and frame.f_code.co_filename.startswith(
        _PACKAGE_DIR
    ):
        outer = frame.f_back
        if outer is not None and _is_bootstrap(outer):
            return level
        frame = outer
        level += 1
    return level
