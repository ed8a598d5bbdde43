"""Exception types shared across the package."""


class ParseError(ValueError):
    """A graph/DOS/grid spec string could not be parsed.

    Carries the offending text and the position of the first bad character.
    """

    def __init__(self, message, text=None, position=None):
        if text is not None and position is not None:
            message = f"{message} (in {text!r} at position {position})"
        super().__init__(message)
        self.text = text
        self.position = position


class NumericalError(RuntimeError):
    """An eigensolver failed to converge, or a result left its valid range."""


class ResourceLimitError(ValueError):
    """A requested construction exceeds the configured size cap."""
