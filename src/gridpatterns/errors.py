"""Exception types shared across the package."""


class GridPatternsError(Exception):
    """Base class for errors raised by this package."""


class InputFormatError(GridPatternsError):
    """An input file does not conform to its documented format."""


class DegenerateDataError(GridPatternsError):
    """Input data is empty or too degenerate for the requested computation."""


class NoFiniteMLEError(DegenerateDataError):
    """The size likelihood has no finite maximizer (every observed size is 1)."""


class CalibrationError(GridPatternsError):
    """The calibration target cannot be reached on the given network.

    Carries the generated values at both endpoints of the search interval so
    the caller can see which side of the target the model sits on.
    """

    def __init__(self, message, *, target=None, low=None, high=None):
        super().__init__(message)
        self.target = target
        self.low = low
        self.high = high
