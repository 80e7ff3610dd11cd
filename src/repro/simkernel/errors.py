"""Exception hierarchy for the simulation kernel."""


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled in the past or with bad arguments."""
