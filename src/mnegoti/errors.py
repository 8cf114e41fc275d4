"""Exception hierarchy for the simulator."""


class MnegotiError(Exception):
    """Base class for all simulator errors."""


class ValidationError(MnegotiError):
    """A scenario document failed validation.

    The message names the offending path within the document,
    e.g. ``groups[1].bounds[2]: lower > upper``.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class ConfigurationError(MnegotiError):
    """Inconsistent model configuration.

    A value out of range, an empty list, or a dimension mismatch.
    """


class DuplicateMemberError(MnegotiError):
    """An object with the same (kind, id) is already in the context."""


class SchedulingError(MnegotiError):
    """Action scheduled in the past or into an already-passed priority band."""


class CascadeOverflowError(MnegotiError):
    """One cause pushed more reactions in a tick than the cascade cap allows."""


class InvalidTransitionError(MnegotiError):
    """Illegal meeting-room lifecycle transition."""


class RoomClosedError(MnegotiError):
    """Operation requires an open meeting room."""


class ProtocolError(MnegotiError):
    """Negotiation round out of range or otherwise illegal protocol step."""


class OutputError(MnegotiError):
    """Run artifacts could not be written."""
