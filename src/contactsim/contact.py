"""Contact record handed from the detection backends to the resolver."""
from __future__ import annotations

from typing import NamedTuple

from .geometry import Vec


class ContactInfo(NamedTuple):
    """Result of one narrow-phase query between bodies A and B.

    ``p_tilde``/``q_tilde`` are the minimum-distance points of the first and
    second body, expressed in the detection frame (the first body's frame,
    origin at its center).  ``anchor_a``/``anchor_b`` are world-frame vectors
    from each body's center to the contact point on that body; ``normal`` is
    the world-frame unit contact normal oriented from A toward B and
    ``tangent`` completes the contact basis.

    ``phi`` is the proximity (negative on overlap), ``rho`` the
    interpenetration depth (positive exactly when ``colliding``).
    ``phi_approx`` marks proximities that are only axis-gap lower bounds or
    eroded-shape estimates rather than exact distances; ``saturated`` marks
    penetrations that exceeded the convex backend's measurable range and were
    clamped to the shrink margin.

    A named tuple: immutable and equal by value, cheaper to build than a
    frozen dataclass on the per-step path.
    """

    colliding: bool
    phi: float
    rho: float
    p_tilde: Vec
    q_tilde: Vec
    anchor_a: Vec
    anchor_b: Vec
    normal: Vec
    tangent: Vec
    saturated: bool = False
    phi_approx: bool = False

    def flipped(self) -> "ContactInfo":
        """Swap the roles of body A and B.

        World-frame anchors swap and the contact basis is negated; the
        detection-frame MDPs swap slots but stay expressed in the original
        detection frame.
        """
        return self._replace(
            p_tilde=self.q_tilde,
            q_tilde=self.p_tilde,
            anchor_a=self.anchor_b,
            anchor_b=self.anchor_a,
            normal=tuple(-c for c in self.normal),
            tangent=tuple(-c for c in self.tangent),
        )
