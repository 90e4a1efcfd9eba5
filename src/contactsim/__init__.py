"""Rigid-body collision dynamics with interchangeable narrow-phase backends."""

from .contact import ContactInfo
from .convex import (
    PairContext,
    SolverResult,
    SolverSettings,
    detect_convex,
    min_distance_pair,
    normal_tangent,
    project_onto_ball,
    project_onto_rectangle,
    rho_from_surrogate,
)
from .errors import (
    ContactSimError,
    DegenerateCenter,
    DegenerateDirection,
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
    contains_point_rect,
    relative_center,
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
    RegionClass,
    circle_mdp,
    detect_circle_circle,
    detect_rect_circle,
    detect_rect_rect,
    detect_sphere_cuboid,
    proximity_and_rho,
    rect_circle_normal,
    rect_mdp,
    region_classify,
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
    step,
)

__version__ = "0.1.0"
