"""Exception types shared across the package."""


class CFLayersError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpecError(CFLayersError, ValueError):
    """A channel description failed validation."""


class TableTooLargeError(CFLayersError, ValueError):
    """The dense joint table would exceed the cell cap, probability.MAX_TABLE_CELLS."""


class UnknownVariableError(CFLayersError, KeyError):
    """A query referenced a variable that is not part of the joint."""


class TooManyRelaysError(CFLayersError, ValueError):
    """Layering enumeration was requested above layering.MAX_ENUM_RELAYS relays."""


class LayeringSyntaxError(CFLayersError, ValueError):
    """Layering text has a token that is not a node written as str() writes the integer."""


class IndexOutOfRangeError(CFLayersError, IndexError):
    """A layer index fell outside the extended range of a layering."""


class InvalidSubsetError(CFLayersError, ValueError):
    """A node set contains nodes outside the relay set."""


class EmptySubsetError(CFLayersError, ValueError):
    """An operation defined only for nonempty relay subsets got the empty set."""


class InvalidRatesError(CFLayersError, ValueError):
    """A compression rate vector is negative or does not match the relay set."""


class DimensionTooHighError(CFLayersError, ValueError):
    """Vertex enumeration was requested above three relays."""


class NotConvergedError(CFLayersError, RuntimeError):
    """The shift iteration hit its iteration guard before finding a layering.

    The full trace of attempted layerings is attached as ``trace``.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
