"""Quasi-local energy of unit spheres near null infinity of perturbed
Schwarzschild spacetimes: radial wave solutions, linearized optimal
embedding on the sphere, energy coefficients and falloff fits, and a
surface-geometry validation path."""

from .embedding import EmbeddingSolution, SurfaceSpec, build_sources, solve_embedding
from .energy import (
    DecayFit,
    EnergyCoefficients,
    EnergyReport,
    LoopSpec,
    assemble_energy,
    energy_coefficients,
    fit_decay,
    loop_integral,
    rho_bracket,
    surface_energy,
    sweep_energy,
)
from .errors import (
    BandLimitError,
    ConfigError,
    CoverageError,
    DomainError,
    FitError,
    IntegrationError,
    QuasilocalError,
    ResolutionError,
    SolvabilityWarning,
)
from .geometry import (
    GeometryReport,
    PerturbationProfiles,
    axial_preset,
    hawking_sweep,
    surface_geometry,
)
from .radial import (
    AnchorBoundary,
    AProfile,
    AsymptoticBoundary,
    AxialMode,
    BackgroundParams,
    PolarMode,
    RadialSolution,
    RadialStack,
    SurfaceAnchorBoundary,
    a_profile,
    integrate_wave,
    inverse_tortoise,
    potential_axial,
    potential_polar,
    tortoise,
)
from .sphere import (
    GridField,
    HarmonicField,
    SphereGrid,
    analyze,
    apply_operator,
    c_theta,
    coordinate_fields,
    gauss_legendre,
    grad_hess,
    integrate,
    synthesize,
)

__version__ = "0.1.0"
