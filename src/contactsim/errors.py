"""Exception types shared across the collision engine."""
from typing import Optional


class ContactSimError(Exception):
    """Base class for all engine errors."""


class NotConverged(ContactSimError):
    """The minimum-distance solver exhausted its iteration budget.

    Raised by ``detect_convex`` with the pairing and each body's pose, a
    ``(position, orientation)`` pair; raised by the bare solver without.
    """

    def __init__(self, iterations: int, displacement: float,
                 pairing: Optional[str] = None, pose_a: Optional[tuple] = None,
                 pose_b: Optional[tuple] = None):
        self.iterations = iterations
        self.displacement = displacement
        self.pairing = pairing
        self.pose_a = pose_a
        self.pose_b = pose_b
        message = (f"solver did not converge after {iterations} iterations "
                   f"(last displacement {displacement:.3e})")
        if pairing is not None:
            message += (f" on {pairing}: body A at {pose_a[0]} orientation "
                        f"{pose_a[1]}, body B at {pose_b[0]} orientation "
                        f"{pose_b[1]}")
        super().__init__(message)


class UnsupportedPair(ContactSimError):
    """The shape pairing has no narrow-phase detector."""


class UnknownScenario(ContactSimError):
    """Scenario name not present in the registry."""
