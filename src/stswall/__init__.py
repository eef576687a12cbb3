"""Coupled heat-and-moisture transfer in multilayer walls, marched with
super-time-stepping (Chebyshev/Legendre), Euler, and Du Fort-Frankel."""

from .errors import (
    AssemblyError, ConfigError, DivergenceError, IngestionError, StaleScheduleError, StswallError,
)
from .integrators import (
    RunReport, SuperStepSchedule, amplification_eval, build_schedule,
    dufort_frankel_run, euler_run, rk4_run, sts_run,
)
from .metrics import (
    ComparisonRecord, drying_rate, error_norms, ratios, total_moisture, write_comparison_csv,
)
from .model import (
    BiotSet, BoundaryForcing, CoefficientModel, DimensionlessGroups, Grid1D, SideForcing,
    StateField, WallAssembly, builtin_material, evaluate_coefficients,
)
from .operator import SemiDiscreteOperator, apply_robin_closure
from .series import BoundarySeries, ingest_boundary_series, write_synthetic_climate

__version__ = "0.1.0"
