"""Physical model building blocks.

Uniform 1D grids, per-material coefficient models, multilayer wall
assemblies, the (u, v) pair a march reports its final state in, and the
boundary-forcing description consumed by the spatial operator.  A state
is otherwise one (2, n) array, row 0 u and row 1 v.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import AssemblyError, ConfigError

# Liquid-water constants used by the built-in dimensional materials.
RHO_WATER = 1000.0  # kg/m^3
C_WATER = 4180.0    # J/(kg K)


COEFFICIENT_NAMES = ("d_theta", "d_t", "c_t", "k_t", "k_tm")


@dataclass(frozen=True)
class CoefficientModel:
    """Five transport/storage coefficients of one material, polynomials in v.

    ``u`` is the temperature-like variable and ``v`` the moisture-like
    variable (dimensionless or physical depending on the case).  Each named
    field holds the low-to-high coefficients of its polynomial in v, and
    ``poly`` the same five tuples in the order of :data:`COEFFICIENT_NAMES`;
    the operator evaluates ``poly`` directly.  ``poly`` stays a field while
    ``perfbench/tracing.py`` rebuilds models with the five named fields
    replaced.  Build models with :meth:`polynomials` (also named
    :meth:`constants`).
    """

    name: str
    d_theta: tuple
    d_t: tuple
    c_t: tuple
    k_t: tuple
    k_tm: tuple
    poly: tuple

    @classmethod
    def polynomials(cls, name, d_theta, d_t, c_t, k_t, k_tm) -> "CoefficientModel":
        """Build a model whose coefficients are polynomials in v.

        Each argument is either a scalar or a low-to-high coefficient list.
        """
        poly = tuple(tuple(float(x) for x in np.atleast_1d(spec)) for spec in (d_theta, d_t, c_t, k_t, k_tm))
        for key, p in zip(COEFFICIENT_NAMES, poly):     # degree-0 terms: c_t > 0, the rest >= 0
            if not p:
                raise ConfigError(f"material {name!r}: {key} has no coefficients")
            if key == "c_t" and not p[0] > 0:
                raise ConfigError(f"material {name!r}: c_t must be positive, got {p[0]}")
            if not p[0] >= 0:
                raise ConfigError(f"material {name!r}: {key} must be non-negative, got {p[0]}")
        return cls(name, *poly, poly)

    # the name for all-scalar models; perfbench/tracing.py wraps each name
    constants = polynomials


def builtin_material(name: str, rho2: float = RHO_WATER, c2: float = C_WATER) -> CoefficientModel:
    """Return one of the named built-in materials.

    ``table1_mat1``/``table1_mat2`` are the constant dimensionless pair used
    by the verification case; ``table3_re``/``table3_ins`` are the
    dimensional rammed-earth and glass-wool models (coefficients in SI
    units, moisture-dependent storage uses ``rho2*c2``).
    """
    key = name.lower()
    if key == "table1_mat1":
        return CoefficientModel.constants(name, 0.3, 2.1, 0.1, 0.5, 0.4)
    if key == "table1_mat2":
        return CoefficientModel.constants(name, 0.1, 3.2, 0.3, 0.2, 0.1)
    if key == "table3_re":
        return CoefficientModel.polynomials(
            name,
            d_theta=[1e-7 - 2.4e-9 * 0.1, 2.4e-9],   # 1e-7 + 2.4e-9 (v - 0.1)
            d_t=1e-10,
            c_t=[1730.0 * 648.0, rho2 * c2],
            k_t=[0.6, 5.0],
            k_tm=4e-18,
        )
    if key == "table3_ins":
        return CoefficientModel.polynomials(
            name,
            d_theta=1e-20,
            d_t=0.0,
            c_t=[146.0 * 840.0, rho2 * c2],
            k_t=0.4875,
            k_tm=1e-17,
        )
    raise ConfigError(f"unknown built-in material {name!r}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``node_count`` nodes spanning [0, length]."""

    length: float
    node_count: int
    node_positions: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if not (self.node_count >= 2 and 0 < self.length < math.inf):
            raise ConfigError("grid needs a finite length > 0 and at least two nodes")
        object.__setattr__(self, "node_positions", np.linspace(0.0, self.length, self.node_count))

    @property
    def spacing(self) -> float:
        return self.length / (self.node_count - 1)


@dataclass(frozen=True)
class WallAssembly:
    """Ordered material layers with their thicknesses.

    ``interface_positions`` are the cumulative sums of the thicknesses of
    all but the last layer; :meth:`node_spans` places the layers on a grid.
    """

    layers: tuple
    interface_positions: np.ndarray = field(init=False)
    total_length: float = field(init=False)

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("wall needs at least one layer")
        layers = tuple((model, float(th)) for model, th in self.layers)
        for model, th in layers:
            if not isinstance(model, CoefficientModel):
                raise ConfigError("each layer is a (CoefficientModel, thickness) pair")
            if not 0 < th < math.inf:
                raise ConfigError(f"layer {model.name!r} needs a positive finite thickness, got {th}")
        object.__setattr__(self, "layers", layers)
        cum = np.cumsum([th for _, th in layers])
        object.__setattr__(self, "interface_positions", cum[:-1])
        object.__setattr__(self, "total_length", float(cum[-1]))

    def node_spans(self, grid: Grid1D) -> list:
        """Inclusive ``(first, last)`` node of each layer on ``grid``.

        Each interface must sit on an interior node, which closes the layer on
        its left and opens the one on its right; where a node holds a single
        value (an initial field), it takes the left layer's (x <= x_int).
        """
        n, dx, length = grid.node_count, grid.spacing, self.total_length
        if abs(length - grid.length) > 1e-9 * length:
            raise AssemblyError(f"grid length {grid.length} does not cover the wall length {length}")
        bounds = [0]
        for x_int in self.interface_positions.tolist():
            j = int(round(x_int / dx))
            if j <= 0 or j >= n - 1 or abs(grid.node_positions[j] - x_int) > 1e-9 * dx:
                raise AssemblyError(f"interface at x={x_int} does not coincide with an interior grid node")
            bounds.append(j)
        return list(zip(bounds, bounds[1:] + [n - 1]))


class StateField(NamedTuple):
    """A march's final u and v rows; ``np.asarray`` stacks them back into the (2, n) state."""

    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class BiotSet:
    """Surface-exchange coefficients for one boundary."""

    m_theta: float = 0.0
    t_t: float = 0.0
    t_theta: float = 0.0
    t_g: float = 0.0

    def __post_init__(self):
        for name, val in asdict(self).items():
            if not math.isfinite(val) or val < 0:
                raise ConfigError(f"Biot coefficient {name} must be finite and >= 0, got {val}")


@dataclass(frozen=True)
class DimensionlessGroups:
    """Constants of the dimensionless coupled system plus per-side Biot sets."""

    fo_m: float
    fo_t: float
    gamma: float = 0.0
    delta: float = 0.0
    biot_left: BiotSet = field(default_factory=BiotSet)
    biot_right: BiotSet = field(default_factory=BiotSet)
    alpha: float = 0.0

    def __post_init__(self):
        for name in ("fo_m", "fo_t", "gamma", "delta", "alpha"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0:
                raise ConfigError(f"group {name} must be finite and >= 0, got {val}")


TimeFn = Callable[[float], float]


def _zero(t: float) -> float:
    return 0.0


@dataclass(frozen=True)
class SideForcing:
    """Ambient data and closure kind for one boundary side.

    For ``kind='dirichlet'`` only ``u_inf``/``v_inf`` are used (the imposed
    surface values).  For ``kind='robin'`` they feed the linear exchange
    terms, ``g_inf`` the absorbed radiation and ``flux_m``/``flux_t`` the
    additional fluxes.  Nothing reads ``psat_inf``: the benchmark tracer
    still rebuilds every side with that field, so it stays until the
    tracer drops it.
    """

    kind: str
    u_inf: TimeFn
    v_inf: TimeFn
    psat_inf: TimeFn = _zero   # unread; see the class docstring
    g_inf: TimeFn = _zero
    flux_m: TimeFn = _zero   # additional moisture flux term
    flux_t: TimeFn = _zero   # additional heat flux term

    def __post_init__(self):
        if self.kind not in ("robin", "dirichlet"):
            raise ConfigError(f"boundary kind must be 'robin' or 'dirichlet', got {self.kind!r}")

    @classmethod
    def dirichlet(cls, u_inf: TimeFn, v_inf: TimeFn) -> "SideForcing":
        return cls(kind="dirichlet", u_inf=u_inf, v_inf=v_inf)

    @classmethod
    def robin(cls, u_inf: TimeFn, v_inf: TimeFn, **kwargs) -> "SideForcing":
        return cls(kind="robin", u_inf=u_inf, v_inf=v_inf, **kwargs)


@dataclass(frozen=True)
class BoundaryForcing:
    left: SideForcing
    right: SideForcing

    def side(self, which: str) -> SideForcing:
        if which == "left":
            return self.left
        if which == "right":
            return self.right
        raise ConfigError(f"side must be 'left' or 'right', got {which!r}")
