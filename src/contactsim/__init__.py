"""Rigid-body collision dynamics with interchangeable narrow-phase backends."""

from .contact import ContactInfo
from .convex import (
    PairContext,
    SolverSettings,
    detect_convex,
    rho_from_surrogate,
)
from .errors import (
    ContactSimError,
    NotConverged,
    UnknownScenario,
    UnsupportedPair,
)
from .geometry import (
    BodyState,
    Circle,
    Cuboid,
    Rectangle,
    Shape,
    Sphere,
    body2d,
    body3d,
)
from .penalty import (
    BodyWrench,
    ContactKinematics,
    MaterialParams,
    contact_force,
    relative_velocity_at_contact,
    wrench_on_bodies,
)
from .sat import (
    Region,
    detect_circle_circle,
    detect_rect_circle,
    detect_rect_rect,
    detect_sphere_cuboid,
    rect_circle_normal,
)
from .scenarios import SCENARIO_NAMES, Scenario, build_scenario
from .simulate import (
    Backend,
    ContactEvent,
    SimConfig,
    Trajectory,
    collision_response,
    kinetic_energy,
    linear_momentum,
    run_scenario,
    run_scenario_timed,
    run_world,
)

__version__ = "0.1.0"
