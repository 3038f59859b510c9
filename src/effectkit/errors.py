"""Exception types shared across the toolkit.

Every domain error derives from :class:`EffectKitError` so callers (and the
CLI exit-code mapping) can distinguish validation failures from genuine bugs.
An error carries its message alone; the exact figures a message quotes are
in the check rows (``effect_checks``, ``state_checks``). Messages echo labels through :func:`shown` and lists of them through
:func:`listed`, so a long label or a long list keeps a message one short
line.
"""

import reprlib

_LABELS = reprlib.Repr()
_LABELS.maxstring = 40


def shown(label: str, quote: bool = True) -> str:
    """``label`` as a message echoes it: its ``repr``, which ``reprlib``
    cuts in the middle to 40 characters, so a label of up to 38 plain
    characters prints whole. ``quote=False`` drops the quotes, for labels
    joined into a relation such as ``A + B = I``."""
    text = _LABELS.repr(label)
    return text if quote else text[1:-1]


# Items a message lists before it counts the rest.
_LISTED_MAX = 8


def listed(items: list[str], sep: str) -> str:
    """``items`` joined by ``sep`` as a message lists them: whole up to
    ``_LISTED_MAX`` items, else the first ``_LISTED_MAX`` and a count of
    the rest, ``... (N more)``."""
    if len(items) <= _LISTED_MAX:
        return sep.join(items)
    rest = len(items) - _LISTED_MAX
    return sep.join(items[:_LISTED_MAX]) + f"{sep}... ({rest} more)"


class EffectKitError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(EffectKitError):
    """A JSON payload does not match the documented file format."""


class DimMismatch(EffectKitError):
    """Operands live on Hilbert spaces of different dimension."""


class ConvergenceFailure(EffectKitError):
    """The eigensolver failed or its result violates residual tolerances."""


class NotPositive(EffectKitError):
    """An operator expected to be positive semidefinite is not."""


class ExceedsIdentity(EffectKitError):
    """An operator expected to satisfy E <= I has an eigenvalue above 1."""


class SumNotIdentity(EffectKitError):
    """A candidate POVM's effects do not sum to the identity."""


class NotDimTwo(EffectKitError):
    """A Bloch-vector operation received an operator that is not 2x2."""


class TraceNotOne(EffectKitError):
    """An operator expected to have unit trace does not."""


class UnknownLabel(EffectKitError):
    """A label was referenced that is absent from the effect collection."""


class FrameDeficient(EffectKitError):
    """The reconstruction frame does not span the operator space."""


class ValuesInconsistent(EffectKitError):
    """Reconstruction values are incompatible with any linear functional."""


class ProbabilityDeficit(EffectKitError):
    """Outcome probabilities do not sum to one within tolerance."""


class RecordMismatch(EffectKitError):
    """A sample record does not match the POVM it is paired with."""


class NotUnitVectors(EffectKitError):
    """Bloch directions for a no-go witness must be unit vectors."""


class DegenerateLambda(EffectKitError):
    """The mixing weight of a no-go witness must lie strictly in (0, 1)."""


class ParallelVectors(EffectKitError):
    """Witness directions coincide (or nearly so); no contradiction arises."""


class BadContext(EffectKitError):
    """A declared measurement context does not form a POVM."""


class BadRelation(EffectKitError):
    """A claimed operator sum identity does not hold."""


class DuplicateOperatorWarning(UserWarning):
    """Two distinct labels carry (numerically) the same operator."""
