"""Exception hierarchy shared across the package.

Two broad families matter to callers (and to the command line tool, which
maps them to exit codes):

* ``InputError`` - the request itself is malformed: unparseable expression,
  unknown model name, bad parameters, empty evaluation grid, or an
  evaluation outside a model's domain of definition.
* ``NumericalError`` - the request is well formed but a numerical
  precondition fails at runtime: a degenerate characteristic system, an
  off-shell ray start, colliding eigenvalues, a CFL violation.

``InternalCheckError`` flags a broken internal invariant (a bug), never a
user mistake.
"""

from __future__ import annotations


class CewaveError(Exception):
    """Base class for every error raised by this package."""


class InputError(CewaveError):
    """Malformed input: parse failures, unknown names, domain violations."""


class NumericalError(CewaveError):
    """A numerical precondition failed while processing valid input."""


class InternalCheckError(CewaveError):
    """An internal consistency check failed; indicates a bug."""


# --- input-class errors -----------------------------------------------------

class DomainError(InputError):
    """Evaluation left the domain of definition (sqrt of a negative, 1/0)."""


class ParseError(InputError):
    """Expression text could not be parsed; carries the character offset
    into the text."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class KindError(InputError):
    """An expression references an invariant its declared kind lacks."""


class UnknownModel(InputError):
    """No builtin model with the requested name."""


class BadParams(InputError):
    """A builtin model received the wrong number (or kind) of parameters."""


class EmptyGrid(InputError):
    """Every candidate grid point fell outside the model's guard."""


class ZeroCovector(InputError):
    """The probe covector is identically zero."""


class ZeroCouplings(InputError):
    """Both curvature-squared couplings vanish; no operator to build."""


class ZeroCoupling(InputError):
    """The f'' coupling vanishes; the fourth-order sector is absent."""


class BadUsage(InputError):
    """Command line arguments are inconsistent."""


# --- numerical-precondition errors ------------------------------------------

class DegeneracyError(NumericalError):
    """A required nondegeneracy quantity (K or the discriminant) vanishes."""


class DegenerateSystem(NumericalError):
    """The first-order system loses hyperbolicity or invertibility."""


class DegenerateQuartic(NumericalError):
    """The dispersion quartic degenerates (leading coefficient vanishes)."""


class ModeCollision(NumericalError):
    """Eigenvalue spacing too small to track a single mode reliably."""


class OffShellStart(NumericalError):
    """Ray initial data does not satisfy the dispersion relation."""


class FloatOverflow(NumericalError):
    """A float power left the double range."""


class StepFailure(NumericalError):
    """An integration step produced non-finite state."""


class GridTooCoarse(NumericalError):
    """Too few samples to estimate a crossing or shock time."""


class CFLViolation(NumericalError):
    """Requested CFL number exceeds the stability bound."""
