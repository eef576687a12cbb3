"""Time marching: explicit Euler, Du Fort-Frankel, the two
super-time-stepping schemes built on Chebyshev and Legendre recursions, and
for the reference solutions classical RK4 and the exact step of a linear
wall with two Robin sides (matrix exponential).

A super-step cycle runs ``n_s`` cheap inner stages whose envelope is
stable only at the cycle end, which lets the outer step exceed the
explicit limit ``dt_exp = 2/lambda_max`` by a factor of n_s^2 (Chebyshev)
or (n_s^2 + n_s)/2 (Legendre).

Chebyshev stage steps are the inverse shifted-Chebyshev roots
``tau_k = w1 / (w0 - cos((2k-1) pi / (2 n_s)))`` with ``w1 = (w0+1)/lambda``.
Damping enters through the argument shift ``w0 = 1 + damping/n_s^2`` (the
usual first-order Chebyshev damping convention), so the undamped limit
recovers the n_s^2 step gain to machine accuracy and the default
``damping = 0.05`` trades a few percent of step size for an interior
stability margin.

On a nonlinear operator a cycle first refreshes the Gershgorin bound and
rebuilds its schedule when the bound outgrows it, unless the state lies
inside the admissible box and the operator's bound over the whole box is
within the schedule's design value: that cycle skips the refresh, which
could only have kept the schedule.

Step-count conventions used in every report: ``n_steps`` is the number of
outer steps actually executed, including a possible shortened final step;
``n_t`` is the regular temporal node count floor(tau/dt) + 1.  Work and
step ratios between schemes are formed from ``n_steps``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DivergenceError, StaleScheduleError
from .model import StateField
from .operator import SemiDiscreteOperator, aligned

ObserveFn = Callable[[float, np.ndarray], None]     # observe(t, y) on the march's (2, n) state

# Nonlinear super-step runs rebuild their schedule against 1.1x the fresh
# stiffness estimate once the estimate outgrows the schedule's design value.
SAFETY_INFLATION = 1.1

_OVERFLOW_GUARD = 1e150

MAX_STAGES = 10_000     # stages per super-step cycle; no case runs more than a hundred


@dataclass(frozen=True)
class SuperStepSchedule:
    """One super-step cycle: stage steps or recursion coefficients."""

    scheme: str
    n_s: int
    dt_exp: float
    dt_super: float
    damping: float
    stage_steps: Optional[np.ndarray] = None       # rkc: tau_k in execution order
    rkl_mu: Optional[np.ndarray] = None
    rkl_nu: Optional[np.ndarray] = None
    rkl_mu_tilde: Optional[np.ndarray] = None

    @property
    def design_lambda(self) -> float:
        """Largest decay rate the cycle is stable for."""
        return 2.0 / self.dt_exp

    def scaled(self, factor: float) -> "SuperStepSchedule":
        """Same stage structure with all times shrunk by ``factor`` <= 1."""
        if not 0 < factor <= 1.0:
            raise ConfigError("schedule scaling factor must be in (0, 1]")
        return replace(
            self, dt_exp=self.dt_exp * factor, dt_super=self.dt_super * factor,
            stage_steps=None if self.stage_steps is None else self.stage_steps * factor,
        )

    def describe(self) -> dict:
        return {key: getattr(self, key) for key in ("scheme", "n_s", "dt_exp", "dt_super", "damping")}

    @cached_property
    def stage_scalars(self) -> list:
        """Each stage's coefficients as 0-d arrays, made once per schedule:
        rkc's ``tau_k``; rkl's ``(nu, mu, mu_tilde * dt_super)``."""
        if self.scheme == "rkc":
            return [np.array(tau) for tau in self.stage_steps.tolist()]
        dt_s = self.dt_super
        return [(np.array(nu), np.array(mu), np.array(mu_t * dt_s)) for nu, mu, mu_t in
                zip(self.rkl_nu.tolist(), self.rkl_mu.tolist(), self.rkl_mu_tilde.tolist())]


def _interleave_order(n: int) -> np.ndarray:
    """Execution order alternating the largest and smallest remaining steps."""
    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    return order


def build_schedule(
    scheme: str, n_s: int, dt_exp: float, damping: Optional[float] = None
) -> SuperStepSchedule:
    """Build one super-step cycle for ``scheme`` in {'rkc', 'rkl'}.

    ``dt_exp`` is the explicit step limit 2/lambda_max the cycle must
    cover.  ``damping`` applies to rkc only and defaults to 0.05; pass 0
    for the exact n_s^2 super step.
    """
    scheme = scheme.lower()
    if scheme not in ("rkc", "rkl"):
        raise ConfigError(f"unknown super-step scheme {scheme!r}")
    if n_s < 1:
        raise ConfigError(f"n_s must be a positive integer, got {n_s}")
    if n_s > MAX_STAGES:
        raise ConfigError(f"n_s={n_s} is more than the ceiling of {MAX_STAGES} stages per cycle")
    if not (dt_exp > 0 and math.isfinite(dt_exp)):
        raise ConfigError(f"dt_exp must be positive and finite, got {dt_exp}")

    if scheme == "rkc":
        if damping is None:
            damping = 0.05
        if not 0 <= damping < math.inf:
            raise ConfigError(f"damping must be finite and >= 0, got {damping}")
        lam = 2.0 / dt_exp
        w0 = 1.0 + damping / n_s**2
        w1 = (w0 + 1.0) / lam
        k = np.arange(1, n_s + 1)
        tau = w1 / (w0 - np.cos((2 * k - 1) * np.pi / (2 * n_s)))
        tau = tau[_interleave_order(n_s)]
        return SuperStepSchedule(
            scheme="rkc", n_s=n_s, dt_exp=dt_exp, dt_super=float(np.cumsum(tau)[-1]),
            damping=float(damping), stage_steps=tau,
        )

    if damping not in (None, 0, 0.0):
        raise ConfigError("damping applies to the rkc scheme only")
    j = np.arange(1, n_s + 1)
    mu = (2.0 * j - 1.0) / j
    nu = 1.0 - mu          # equals (1 - j)/j, written so mu + nu == 1 exactly
    span = float(n_s * (n_s + 1))
    dt_super = 0.5 * span * dt_exp
    mu_tilde = mu * 2.0 / span
    return SuperStepSchedule(
        scheme="rkl", n_s=n_s, dt_exp=dt_exp, dt_super=dt_super, damping=0.0,
        rkl_mu=mu, rkl_nu=nu, rkl_mu_tilde=mu_tilde,
    )


def amplification_eval(schedule: SuperStepSchedule, lam):
    """Growth factor of one cycle on the test equation dy/dt = -lam y.

    Marches the scheme's own cycle from y = 1 for each decay rate, so it
    tests the code that marches.  Accepts a scalar or array of decay
    rates; returns the signed factor (exactly 1 at lam = 0).
    """
    lam_arr = np.array(lam, dtype=float, ndmin=1)
    if np.any(lam_arr < 0):
        raise ConfigError("amplification_eval requires lam >= 0")
    # a stand-in operator of the test equation, without constraints
    decay = SimpleNamespace(rhs=lambda t, y, coeffs=None, out=None: np.multiply(-lam_arr, y, out),
                            apply_constraints=lambda t, y: None)
    y = np.ones_like(lam_arr)
    p = _CYCLES[schedule.scheme](decay, schedule, 0.0, y, None, _cycle_work(schedule.scheme, y.shape))
    return float(p[0]) if np.ndim(lam) == 0 else p


@dataclass
class RunReport:
    """Bookkeeping of one time march."""

    scheme: str
    dt: float                      # regular outer step (super-step for STS)
    tau: float
    n_steps: int                   # outer steps executed, incl. shortened final step
    n_t: int                       # regular temporal nodes: floor(tau/dt) + 1
    rhs_evals: int
    cpu_s: float
    final_state: StateField
    flags: dict = field(default_factory=dict)
    n_s: Optional[int] = None
    dt_exp: Optional[float] = None

    def describe(self) -> dict:
        out = {
            "scheme": self.scheme, "dt": self.dt, "tau": self.tau,
            "n_steps": self.n_steps, "n_t": self.n_t,
            "rhs_evals": self.rhs_evals, "cpu_s": self.cpu_s,
            "flags": dict(self.flags),
        }
        if self.n_s is not None:
            out["n_s"] = self.n_s
        if self.dt_exp is not None:
            out["dt_exp"] = self.dt_exp
        return out


class _Monitor:
    """Per-outer-step health checks and the observer calls, from the
    initial state (step 0) on.

    A march diverges when its state turns non-finite or leaves the
    divergence limits: one box width beyond each side of the admissible
    ``box`` (the operator's; a runaway march may stay finite for a long
    time), or a fixed magnitude when there is no box.  ``inside`` says
    whether the last step checked lay inside the box (never the initial
    state); a super-step cycle that starts there may skip its refresh.
    """

    def __init__(self, box, scheme, observe, observe_every):
        self.box = box
        self.scheme = scheme
        self.observe = observe
        self.observe_every = max(1, int(observe_every))
        self.box_violations = 0
        self.inside = False
        self.extremes = np.empty((2, 2))
        self.minima, self.maxima = self.extremes    # of the rows u and v
        if self.box is None:
            self.limits = (-_OVERFLOW_GUARD, _OVERFLOW_GUARD) * 2
            self.limits_text = f"magnitude above {_OVERFLOW_GUARD:g}"
        else:
            u_lo, u_hi, v_lo, v_hi = self.box
            wu, wv = u_hi - u_lo, v_hi - v_lo
            self.limits = (u_lo - wu, u_hi + wu, v_lo - wv, v_hi + wv)
            self.limits_text = f"more than one box width outside the admissible box {tuple(self.box)}"

    def check(self, step_index, t, y, final=False):
        """Check and observe outer step ``step_index``; step 0 is the initial
        state, which the limits refuse as input (a ConfigError) and which
        never counts as a box violation."""
        np.minimum.reduce(y, 1, None, self.minima)
        np.maximum.reduce(y, 1, None, self.maxima)
        (umin, vmin), (umax, vmax) = self.extremes.tolist()
        u_lo, u_hi, v_lo, v_hi = self.limits
        # written so that NaN fails the test
        if not (u_lo <= umin and umax <= u_hi and v_lo <= vmin and vmax <= v_hi):
            extremes = (umin, umax, vmin, vmax)
            cause = ("non-finite state" if not all(map(math.isfinite, extremes)) else
                     "u in [%.4g, %.4g], v in [%.4g, %.4g]: " % extremes + self.limits_text)
            if not step_index:
                raise ConfigError(f"initial state has {cause}")
            raise DivergenceError(self.scheme, step_index, t, cause)
        if self.box is not None and step_index:
            u_lo, u_hi, v_lo, v_hi = self.box
            self.inside = u_lo <= umin and umax <= u_hi and v_lo <= vmin and vmax <= v_hi
            if not self.inside:
                self.box_violations += 1
        if self.observe is not None and (final or step_index % self.observe_every == 0):
            self.observe(t, y)


def node_count(dt: float, tau: float) -> int:
    """Regular temporal nodes of step dt in tau: floor(tau/dt) + 1, with a
    1e-12 relative slack so that rounding cannot lose a whole step."""
    if tau < 0:
        raise ConfigError(f"final time must be >= 0, got {tau}")
    if dt <= 0:
        raise ConfigError(f"time step must be positive, got {dt}")
    return int(math.floor(tau / dt * (1.0 + 1e-12))) + 1


class _Scalars:
    """The 0-d arrays of ``make(h)`` at step size h, made again only when h
    changes.  numpy takes a 0-d array operand faster than a Python float,
    with the same float64 arithmetic."""

    def __init__(self, make):
        self.make, self.h, self.values = make, None, None

    def __call__(self, h):
        if h != self.h:
            self.h, self.values = h, [np.array(x) for x in self.make(h)]
        return self.values


class _EulerStep:
    """Forward Euler: one RHS evaluation and an axpy per step."""

    scheme = "euler"
    n_s = None

    def __init__(self, op, dt, dt_exp=None):
        self.op, self.dt, self.dt_exp = op, dt, dt_exp
        self.flags = {}
        self.dy = aligned((2, op.n))        # the RHS output
        self.euler_h = _Scalars(lambda h: (h,))

    def refresh(self, t, y, inside):
        return False

    def step(self, t, h, t_new, y):
        dy = self.op.rhs(t, y, None, self.dy)
        y += np.multiply(dy, self.euler_h(h)[0], dy)
        self.op.apply_constraints(t_new, y)
        return y

    land = step


class _RK4Step(_EulerStep):
    """Classical fourth-order Runge-Kutta: four RHS evaluations per step at
    t, t+h/2, t+h/2 and t+h, each stage state constrained at its time."""

    scheme = "rk4"

    def __init__(self, op, dt):
        super().__init__(op, dt)
        self.y_s, self.k = aligned((2, 2, op.n))     # the stage state, the RHS of stages 2-4
        self.rk4_h = _Scalars(lambda h: (0.5 * h, 1.0 * h, 2.0, h / 6.0))

    def step(self, t, h, t_new, y):
        op, t_mid, y_s = self.op, t + 0.5 * h, self.y_s
        half, whole, two, sixth = self.rk4_h(h)
        # k1 + 2 k2 + 2 k3 + k4, summed in that order in k1's array; a
        # stage's k is doubled in its own array once its stage state is made
        k = total = op.rhs(t, y, None, self.dy)
        for c, t_s in ((half, t_mid), (half, t_mid), (whole, t_new)):
            np.add(y, np.multiply(k, c, y_s), y_s)
            if k is not total:
                total += np.multiply(k, two, k)
            op.apply_constraints(t_s, y_s)
            k = op.rhs(t_s, y_s, None, self.k)
        total += k
        y += np.multiply(total, sixth, total)
        op.apply_constraints(t_new, y)
        return y

    land = step


class _DufortFrankelStep(_EulerStep):
    """Du Fort-Frankel; its first step and its landing are Euler steps."""

    scheme = "df"

    def __init__(self, op, dt):
        super().__init__(op, dt)
        self.prev = None                    # the state one level back
        self.blocks = None                  # (4, n): b_uu, b_uv, b_vu, b_vv
        self.refresh_blocks = not op.is_linear
        # dt b, 1 +- dt b of uu and vv, det(1 + dt B), the update's r and work
        self.dt_b, self.det = aligned((4, op.n)), aligned((op.n,))
        self.plus, self.minus, self.r, self.work = aligned((4, 2, op.n))
        self.df_dt = _Scalars(lambda dt: (dt, dt * dt, 2.0 * dt, 1.0))

    def step(self, t, dt, t_new, y):
        if self.prev is None:
            self.prev = aligned(y.shape, y)
            return super().step(t, dt, t_new, y)
        op = self.op
        coeffs = op._coefficients(y[1])     # one pass for the blocks and the RHS
        dt_b, plus, minus, det, r, work = self.dt_b, self.plus, self.minus, self.det, self.r, self.work
        dt0, dt_sq, two_dt, one = self.df_dt(dt)
        if self.blocks is None or self.refresh_blocks:
            b = self.blocks = op.jacobian_node_blocks(y[1], coeffs)
            np.multiply(b, dt0, dt_b)
            np.add(one, dt_b[::3], plus)
            np.subtract(one, dt_b[::3], minus)
            np.multiply(plus[0], plus[1], det)
            det -= np.multiply(np.multiply(b[1], dt_sq, work[0]), b[2], work[0])
        b, prev, (u, v) = self.blocks, self.prev, y
        # Both rows at once, each element by the operations of
        # r_u = (1 - dt b_uu) u_prev - dt b_uv v_prev + 2 dt (du + b_uu u + b_uv v) and
        # r_v = -dt b_vu u_prev + (1 - dt b_vv) v_prev + 2 dt (dv + b_vu u + b_vv v) in their order.
        dy = op.rhs(max(0.0, t - dt), y, coeffs, self.dy)     # forcing at the base level
        dy += np.multiply(b[0::2], u, work)     # b_uu u, b_vu u
        dy += np.multiply(b[1::2], v, work)     # b_uv v, b_vv v
        dy *= two_dt
        np.multiply(minus, prev, r)
        r -= np.multiply(dt_b[1:3], prev[::-1], work)
        r += dy
        # (1 + dt B)^-1 r per node: ((1 + dt b_vv) r_u - dt b_uv r_v) / det, and for v
        # likewise, written over the level one back, which r has used up
        y_new = np.multiply(plus[::-1], r, prev)
        y_new -= np.multiply(dt_b[1:3], r[::-1], work)
        y_new /= det
        self.prev = y
        op.apply_constraints(t_new, y_new)
        return y_new

    def land(self, t, remainder, t_end, y):
        # Stable Euler sub-steps below the explicit limit.
        lam = self.op.gershgorin_lambda_max(y[1])
        dt_safe = remainder if lam == 0 else min(remainder, 1.8 / lam)
        m = max(1, int(math.ceil(remainder / dt_safe)))
        h = remainder / m
        for _ in range(m):
            _EulerStep.step(self, t, h, t + h, y)
            t += h
        self.flags["remainder_substeps"] = m
        return y


def _matmul(a, b, out):
    """``a @ b`` into ``out`` by 2 x 2 blocks: OpenBLAS packs the operand
    blocks into buffers that stay resident, and half-size blocks halve them."""
    h = len(a) // 2
    for i in (slice(None, h), slice(h, None)):
        for j in (slice(None, h), slice(h, None)):
            np.matmul(a[i, :h], b[:h, j], out[i, j])
            out[i, j] += a[i, h:] @ b[h:, j]


def _expm(x):
    """exp(x), overwriting ``x``: scaling and squaring a degree-8 Taylor polynomial."""
    s = max(0, math.ceil(math.log2(16.0 * np.abs(x).sum(axis=1).max() + 1e-300)))
    x /= 2.0 ** s           # infinity norm at most 1/16: the remainder is below 1e-16
    e, work = np.eye(len(x)), np.empty_like(x)
    for k in [*range(8, 0, -1)] + [0] * s:      # e <- I + x e / k, then s squarings
        _matmul(e if k == 0 else x, e, work)
        if k:
            work /= k
            work.ravel()[::len(x) + 1] += 1.0
        e, work = work, e
    return e


def _lagrange(at, nodes) -> np.ndarray:
    """Samples at ``nodes`` -> their interpolating polynomial at each of ``at``."""
    return np.array([[math.prod((a - x) / (xj - x) for x in nodes if x != xj) for xj in nodes] for a in at])


class _ExactStep:
    """Exact steps y <- P y + G s of rhs(t, y) = -A y + E b(t), E the four end
    rows of a linear wall with two Robin sides, b the line through its values
    s at the step's two Gauss nodes: P = exp(-A h) and G (h [phi1(-A h) E,
    phi2(-A h) E] times the line's fit) come from one exponential of
    [[-A h, h E, 0], [0, 0, I], [0, 0, 0]] (Al-Mohy and Higham 2011).  Row 1
    of ``yz`` (row 0 is y) is the step-doubling companion: it takes each pair
    of steps as one of 2h, b the line through the cubic of their four samples
    at its own Gauss nodes, so the march takes an even number of whole steps
    h, and the gap of the rows over 2^4 - 1 estimates y's error."""

    scheme, n_s, dt_exp = "expm", None, None

    def __init__(self, op, dt, y0):
        g = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)      # Gauss nodes on [0, 1]
        self.op, self.dt, self.gauss, self.flags, self.count = op, dt, g, {}, 0
        self.b, self.taken = np.empty((2, 2, op.n)), np.empty((2, 2, 2, 2))
        self.yz = np.array([y0.ravel()] * 2)
        self.fit = np.kron([[g[1], -g[0]], [-1.0, 1.0]], math.sqrt(3.0) * np.eye(4))    # samples -> (c0, c1)
        self.pt, self.g = self.propagator(dt)
        # a pair's four samples -> its line at each of its steps' Gauss nodes, less that step's own samples
        cubic = _lagrange(g, [s / 2.0 for s in g] + [(1.0 + s) / 2.0 for s in g])
        first, second = (np.kron(_lagrange([(k + s) / 2.0 for s in g], g) @ cubic - np.eye(4)[2 * k:2 * k + 2],
                                 np.eye(4)) for k in (0, 1))
        self.pair_forcing = self.pt.T @ (self.g @ first) + self.g @ second

    def propagator(self, h):
        """(P^T, G) of a step h."""
        m = 2 * self.op.n
        p = np.empty((m, m))        # made before the temporaries, so that freeing them can shrink the heap
        x = np.zeros((m + 8, m + 8))
        np.multiply(self.op.frozen_matrix(), -h, x[:m, :m])
        x[[0, m // 2 - 1, m // 2, m - 1], range(m, m + 4)] = h       # u and v at both ends
        x[range(m, m + 4), range(m + 4, m + 8)] = 1.0
        e = _expm(x)
        p[...] = e[:m, :m]
        return p.T, e[:m, m:] @ self.fit

    def samples(self, t, h, out):
        """b = rhs(t, 0) in the end rows at the Gauss nodes of [t, t + h], into ``out``."""
        for b, s in zip(self.b, self.gauss):
            self.op.boundary_forcing(t + s * h, b.ravel())
        out[...] = self.b[:, :, ::self.op.n - 1]
        return out.ravel()

    def refresh(self, t, y, inside):
        return False

    def step(self, t, h, t_new, y):
        s = self.samples(t, self.dt, self.taken[self.count % 2])
        yz = self.yz @ self.pt      # y, the march's state, is row 0 of yz
        yz += self.g @ s
        if self.count % 2:          # a pair's second step
            yz[1] += self.pair_forcing @ self.taken.ravel()
        self.count += 1
        self.yz = yz
        return yz[0].reshape(y.shape)

    def land(self, t, h, t_end, y):
        """Past about 10^6 steps rounding can leave the last whole step (a pair's
        second) short of fitting in _march's slack, or, past about 10^7, a sliver
        after it: the one is a regular step, the other is dropped."""
        return self.step(t, h, t_end, y) if self.count % 2 else y


def _initial_state(op, y0) -> np.ndarray:
    """A C-ordered, 64-byte aligned float copy of ``y0``, refused unless it is
    a finite (2, op.n) array."""
    y = np.asarray(y0, dtype=float)
    if y.shape != (2, op.n):
        raise ConfigError(f"initial state must be a finite (2, {op.n}) array, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ConfigError(f"initial state must be a finite (2, {op.n}) array, got a non-finite value")
    return aligned(y.shape, y)


def _full_step_fits(t, dt, tau, tol=None) -> bool:
    """True when _march, at ``t`` short of ``tau`` (by more than ``tol``,
    1e-9 dt unless given), takes a full step of ``dt`` rather than the
    landing: the step fits in the time left to a 1e-9 relative slack."""
    return t < tau - (1e-9 * dt if tol is None else tol) and dt <= (tau - t) * (1.0 + 1e-9)


def _march(op, y0, stepper, tau, observe, observe_every) -> RunReport:
    """March ``stepper`` from ``y0`` to ``tau`` and report the run.

    The state is one (2, n) array ``y`` (row 0 u, row 1 v), a copy of
    ``y0``; a ``y0`` that is not a finite (2, op.n) array, or that lies
    outside the monitor's divergence limits, is a ConfigError.  The
    stepper's ``step(t, h, t_new, y)`` advances from ``t`` by its regular
    step ``h = dt`` and ``land(t, h, tau, y)`` by the shorter step ``h``
    left before tau; both may update ``y`` in place and return the new
    state.  Its ``refresh(t, y, inside)`` runs before every step but the
    first, ``inside`` the monitor's finding that ``y`` lies inside the
    admissible box, and returns True when it changed ``dt``.  Outer times
    are ``base + k*dt``, rebased at such a change.  A full step is taken
    while it fits in the time left (to a 1e-9 relative slack), else one
    landing step ends exactly on tau.  Every outer step is checked by the
    monitor, and the step that reaches tau is always observed.  Observers
    get ``(t, y)``, the march's own array, and copy what they keep; the
    report's ``final_state`` holds the rows of the last ``y``.
    """
    dt0 = stepper.dt
    n_t = node_count(dt0, tau)
    tol = 1e-9 * dt0
    y = _initial_state(op, y0)
    mon = _Monitor(op.admissible_box, stepper.scheme, observe, observe_every)
    mon.check(0, 0.0, y)
    evals0 = op.rhs_evals

    t_start = time.perf_counter()
    t = base = 0.0
    dt = dt0
    k = step = 0
    while t < tau - tol:
        if step and stepper.refresh(t, y, mon.inside):
            dt, base, k = stepper.dt, t, 0
        if _full_step_fits(t, dt, tau, tol):
            k += 1
            t_new = base + k * dt
            y = stepper.step(t, dt, t_new, y)
            t = t_new
        else:
            y = stepper.land(t, tau - t, tau, y)
            t = tau
        step += 1
        mon.check(step, t, y, final=t >= tau - tol)
    cpu = time.perf_counter() - t_start

    return RunReport(
        scheme=stepper.scheme, dt=dt0, tau=tau, n_steps=step, n_t=n_t,
        rhs_evals=op.rhs_evals - evals0, cpu_s=cpu,
        final_state=StateField(*y),
        flags={**stepper.flags, "box_violations": mon.box_violations},
        n_s=stepper.n_s, dt_exp=stepper.dt_exp,
    )


# The runners euler_run, rk4_run, dufort_frankel_run and sts_run each march
# a copy of ``y0``, the (2, n) initial state (row 0 u, row 1 v), to ``tau``
# and call ``observe(t, y)`` every ``observe_every`` outer steps and at tau;
# see _march.

def euler_run(op: SemiDiscreteOperator, y0: np.ndarray, dt: float, tau: float,
              observe: Optional[ObserveFn] = None, observe_every: int = 1) -> RunReport:
    """March with forward Euler steps ``y <- y + dt f(t, y)``.

    Refuses dt at or above the explicit limit of the operator (estimated
    at the initial state).
    """
    lam = op.gershgorin_lambda_max(_initial_state(op, y0)[1])
    stepper = _EulerStep(op, dt, math.inf if lam == 0 else 2.0 / lam)
    if dt >= stepper.dt_exp:
        raise ConfigError(f"Euler step {dt:g} exceeds the explicit limit {stepper.dt_exp:g}")
    return _march(op, y0, stepper, tau, observe, observe_every)


def rk4_run(op: SemiDiscreteOperator, y0: np.ndarray, dt: float, tau: float,
            observe: Optional[ObserveFn] = None, observe_every: int = 1) -> RunReport:
    """March with classical RK4 steps; the caller keeps ``dt * lambda_max``
    inside its real-axis stability limit of 2.785."""
    return _march(op, y0, _RK4Step(op, dt), tau, observe, observe_every)


def dufort_frankel_run(op: SemiDiscreteOperator, y0: np.ndarray, dt: float, tau: float,
                       observe: Optional[ObserveFn] = None, observe_every: int = 1) -> RunReport:
    """Three-level leapfrog march with the self-coupling taken implicitly.

    Splitting the frozen Jacobian as A = B + O, where B holds each node's
    2x2 self-coupling block and O the spatial-neighbour part, one step
    solves ``(1 + dt B) y_{n+1} = (1 - dt B) y_{n-1} + 2 dt (f(y_n) + B y_n)``
    with analytic per-node 2x2 inverses.  The block (not merely diagonal)
    treatment is required: two-way cross coupling in a plain leapfrog is
    unconditionally unstable.  Per-step cost stays at one RHS evaluation.
    The first step is bootstrapped with a single Euler step; a final
    shorter-than-dt landing is integrated with explicit Euler sub-steps
    below the stability limit.  Time-dependent boundary data of the double
    step from t_{n-1} to t_{n+1} are read at the base level t_{n-1}.
    """
    return _march(op, y0, _DufortFrankelStep(op, dt), tau, observe, observe_every)


def _cycle_work(scheme, shape):
    """Scratch arrays of a cycle on states of ``shape``: the RHS output, and
    for rkl a second state and the mu Y_p product."""
    return list(aligned((1 if scheme == "rkc" else 3, *shape)))


# Every stage reads boundary data at the cycle start t0; the last imposes
# Dirichlet values at the cycle end.  Stages update in place, with the
# schedule's 0-d stage coefficients, in the scratch arrays ``work`` of
# _cycle_work; ``coeffs`` is a coefficient pass already made on ``y``.
def _rkc_cycle(op, schedule, t0, y, coeffs, work):
    dy, = work
    t_end, last = t0 + schedule.dt_super, schedule.n_s - 1
    for k, tau in enumerate(schedule.stage_scalars):
        op.rhs(t0, y, None if k else coeffs, dy)
        y += np.multiply(dy, tau, dy)
        op.apply_constraints(t0 if k < last else t_end, y)
    return y


def _rkl_cycle(op, schedule, t0, y, coeffs, work):
    y_p, dy, mu_y = work
    stages, t_end, n_s = schedule.stage_scalars, t0 + schedule.dt_super, schedule.n_s
    op.rhs(t0, y, coeffs, y_p)
    y_pp, y_p = y, np.add(y, np.multiply(y_p, stages[0][2], y_p), y_p)     # Y_0, Y_1
    op.apply_constraints(t0 if n_s > 1 else t_end, y_p)
    for j, (nu, mu, mu_t_dt) in enumerate(stages[1:], start=2):
        op.rhs(t0, y_p, None, dy)
        y_pp *= nu                      # Y_j = (mu Y_p + nu Y_pp) + mu_t dt_s dY, over Y_pp
        y_pp += np.multiply(mu, y_p, mu_y)
        y_pp += np.multiply(dy, mu_t_dt, dy)
        y_pp, y_p = y_p, y_pp
        op.apply_constraints(t0 if j < n_s else t_end, y_p)
    work[0] = y_pp      # the state not returned is the next cycle's second state
    return y_p


_CYCLES = {"rkc": _rkc_cycle, "rkl": _rkl_cycle}


class _SuperStep:
    """A super-step cycle; on nonlinear operators the stiffness estimate is
    refreshed before each cycle and the schedule rebuilt when outgrown.  A
    cycle skips the refresh when the monitor found its state inside the
    admissible box and the operator's bound over that box
    (:meth:`~SemiDiscreteOperator.gershgorin_box_bound`, taken once, with
    the box as it stands here) is within the active schedule's design
    value: the refresh could then only return False."""

    def __init__(self, op, schedule):
        self.op, self.active = op, schedule
        self.scheme, self.n_s, self.dt_exp = schedule.scheme, schedule.n_s, schedule.dt_exp
        self.cycle = _CYCLES[schedule.scheme]
        self.refresh_lambda = not op.is_linear
        self.box_lambda = op.gershgorin_box_bound() if self.refresh_lambda else math.inf
        self.flags = {"schedule_rebuilds": 0}
        self.coeffs = None      # the refresh's coefficient pass, for the next stage 1
        self.work = _cycle_work(schedule.scheme, (2, op.n))

    @property
    def dt(self):
        return self.active.dt_super

    def refresh(self, t, y, inside):
        if not self.refresh_lambda or inside and self.box_lambda <= self.active.design_lambda:
            return False
        self.coeffs = self.op._coefficients(y[1])
        lam = self.op.gershgorin_lambda_max(y[1], self.coeffs)
        if lam <= self.active.design_lambda:
            return False
        self.active = build_schedule(
            self.scheme, self.n_s, 2.0 / (SAFETY_INFLATION * lam),
            self.active.damping if self.scheme == "rkc" else None,
        )
        self.flags["schedule_rebuilds"] += 1
        return True

    def step(self, t, h, t_new, y, schedule=None):
        coeffs, self.coeffs = self.coeffs, None
        return self.cycle(self.op, schedule or self.active, t, y, coeffs, self.work)

    def land(self, t, h, t_end, y):
        return self.step(t, h, t_end, y, self.active.scaled(h / self.active.dt_super))


def sts_run(op: SemiDiscreteOperator, y0: np.ndarray, schedule: SuperStepSchedule, tau: float,
            observe: Optional[ObserveFn] = None, observe_every: int = 1) -> RunReport:
    """March with super-step cycles defined by ``schedule``.

    The schedule must cover the operator's current stiffness (else a
    :class:`StaleScheduleError` is raised).  For nonlinear operators the
    stiffness estimate is refreshed once per cycle and the schedule is
    rebuilt with a safety margin when the estimate outgrows it; a cycle
    skips the refresh when its state lies inside the operator's admissible
    box and the operator's bound over that box is within the schedule's
    design value (see :class:`_SuperStep`).  If tau is
    not a whole number of super steps, a final scaled-down cycle lands
    exactly on tau.  Every stage of a cycle reads time-dependent boundary
    data at the cycle start; the last stage imposes Dirichlet values at
    the cycle end.
    """
    lam0 = op.gershgorin_lambda_max(_initial_state(op, y0)[1])
    if lam0 > schedule.design_lambda * (1.0 + 1e-9):
        raise StaleScheduleError(
            f"schedule was built for lambda_max <= {schedule.design_lambda:g} "
            f"but the operator currently has a bound of {lam0:g}"
        )
    return _march(op, y0, _SuperStep(op, schedule), tau, observe, observe_every)
