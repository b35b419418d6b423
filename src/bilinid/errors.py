"""Exception types raised across the library.

Every error that can reach a caller is a named subclass of BilinError so
front ends can report the failure kind without string matching.
"""


class BilinError(Exception):
    """Base class for all library errors."""


# -- validation / serialization -------------------------------------------

class ShapeMismatch(BilinError):
    pass


class NonFiniteEntry(BilinError):
    pass


class ParseError(BilinError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


# -- matrix functions ------------------------------------------------------

class Overflow(BilinError):
    pass


class NoConvergence(BilinError):
    pass


class SpectrumOnCut(BilinError):
    pass


# -- realization -----------------------------------------------------------

class NotCanonical(BilinError):
    pass


class NotSimilar(BilinError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class NotCanonicalTriple(BilinError):
    pass


# -- simulation ------------------------------------------------------------

class GridOutOfRange(BilinError):
    pass


# -- counterexample generators ----------------------------------------------

class NotInG0(BilinError):
    pass


class NotInC(BilinError):
    pass


class DegenerateRescale(BilinError):
    pass


class NoDistinguisherFound(BilinError):
    pass


class NotInBalpha(BilinError):
    pass


class NoValidL(BilinError):
    pass


class DimensionMismatch(BilinError):
    pass


class NoAdmissibleDraw(BilinError):
    """A rejection sampler drew no tuple of its class within its budget."""


# -- identification ----------------------------------------------------------

class OrderAmbiguous(BilinError):
    pass


class UnobservablePair(BilinError):
    pass


class NotCanonicalResult(BilinError):
    pass


class PoorFit(BilinError):
    pass


class Aliased(SpectrumOnCut):
    """The width step is too coarse for the rotation of A + alpha N."""
