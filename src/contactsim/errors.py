"""Exception types shared across the collision engine."""
from typing import Optional


class ContactSimError(Exception):
    """Base class for all engine errors."""


class NotConverged(ContactSimError):
    """The minimum-distance solver exhausted its iteration budget.

    ``detect_convex`` sets the pairing and each body's pose, a
    ``(position, orientation)`` pair; a run adds the time ``t``, the pair's
    body indices and the backend.  The message names every one that is set.
    """

    def __init__(self, iterations: int, displacement: float):
        super().__init__(iterations, displacement)
        self.iterations = iterations
        self.displacement = displacement
        self.pairing: Optional[str] = None
        self.pose_a: Optional[tuple] = None
        self.pose_b: Optional[tuple] = None
        self.t: Optional[float] = None
        self.pair: Optional[tuple] = None
        self.backend: Optional[str] = None

    def __str__(self) -> str:
        message = (f"solver did not converge after {self.iterations} iterations "
                   f"(last displacement {self.displacement:.3e})")
        if self.pairing is not None:
            pose_a, pose_b = self.pose_a, self.pose_b
            message += (f" on {self.pairing}: body A at {pose_a[0]} orientation "
                        f"{pose_a[1]}, body B at {pose_b[0]} orientation "
                        f"{pose_b[1]}")
        if self.t is not None:
            message = (f"the run stopped at t={self.t:g} in pair {self.pair} "
                       f"({self.backend} backend): {message}")
        return message


class UnsupportedPair(ContactSimError):
    """The shape pairing has no narrow-phase detector."""


class UnknownScenario(ContactSimError):
    """Scenario name not present in the registry."""
