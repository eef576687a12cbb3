"""Independent reference solutions for the output checks.

The semi-discrete system is written out here a second time, from the
discretization the program documents (conservative flux differences with
harmonic-mean face coefficients, interface nodes that average the two
storage coefficients, Robin half-cells with inflow-oriented exchange,
Dirichlet nodes imposed from the boundary series), with the material tables
and forcing transcribed from the case definitions.  It is integrated by
scipy's stiff solvers to tolerances far below the schemes' errors.  Nothing
here calls the program's operator, integrators or reference oracle, so a
later change to any of them is checked rather than compared with itself.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import bmat, diags



# Coefficients (d_theta, d_t, c_t, k_t, k_tm) as polynomials in v, low to
# high order.
MATERIALS = {
    "mat1": ([0.3], [2.1], [0.1], [0.5], [0.4]),
    "mat2": ([0.1], [3.2], [0.3], [0.2], [0.1]),
    "re": ([1e-7 - 2.4e-9 * 0.1, 2.4e-9], [1e-10], [1730.0 * 648.0, 1000.0 * 4180.0],
           [0.6, 5.0], [4e-18]),
    "ins": ([1e-20], [0.0], [146.0 * 840.0, 1000.0 * 4180.0], [0.4875], [1e-17]),
}

LAYOUTS = {
    "verify": [("mat1", 0.6), ("mat2", 0.4)],
    "ins_re": [("ins", 0.125), ("re", 0.5)],
    "re_ins": [("re", 0.5), ("ins", 0.125)],
    "re": [("re", 0.5)],
}

# Dimensionless groups (fo_m, fo_t, gamma, delta).  Physical runs use unit
# rate groups with the latent heat as the heat-equation cross factor.
VERIFY_GROUPS = (9e-2, 7e-2, 7e-2, 5e-2)
PHYSICAL_GROUPS = (1.0, 1.0, 1.0, 2.5e6)

# Verification Robin data per side: Biot numbers (m_theta, t_t, t_theta)
# and the ambient u and v as functions of t.
_TWO_PI = 2.0 * np.pi
VERIFY_ROBIN = {
    "left": ((25.5, 50.5, 0.496),
             lambda t: 1 + 0.6 * np.sin(_TWO_PI * t / 5) ** 2,
             lambda t: 1 + 0.2 * np.sin(_TWO_PI * t / 2) ** 2),
    "right": ((51.8, 19.8, 0.673),
              lambda t: 1 + 0.5 * np.sin(_TWO_PI * t / 3) ** 2,
              lambda t: 1 + 0.9 * np.sin(_TWO_PI * t / 6) ** 2),
}


class Wall:
    """Node and face material maps of a layout on spacing ``dx``."""

    def __init__(self, layout, dx):
        faces = []
        for k, (_, thickness) in enumerate(layout):
            faces += [k] * int(round(thickness / dx))
        self.n = len(faces) + 1
        self.dx = dx
        self.face_mat = np.array(faces)
        self.polys = [MATERIALS[name] for name, _ in layout]
        self.interfaces = np.nonzero(np.diff(self.face_mat))[0] + 1
        # An interface node belongs to the layer on its left.
        self.node_mat = np.concatenate([self.face_mat[:1], self.face_mat])
        self.x = np.linspace(0.0, dx * (self.n - 1), self.n)

    def coefficients(self, v):
        """Face (d_theta, d_t, k_t, k_tm) and nodal storage c at moisture v."""
        at_nodes = [[np.polynomial.polynomial.polyval(v, p) for p in mat] for mat in self.polys]
        faces = []
        for idx in (0, 1, 3, 4):
            left = np.choose(self.face_mat, [vals[idx][:-1] for vals in at_nodes])
            right = np.choose(self.face_mat, [vals[idx][1:] for vals in at_nodes])
            faces.append(2.0 * left * right / (left + right + 1e-300))
        c = np.choose(self.node_mat, [vals[2] for vals in at_nodes])
        for j in self.interfaces:
            m_left, m_right = self.face_mat[j - 1], self.face_mat[j]
            c[j] = 0.5 * (at_nodes[m_left][2][j] + at_nodes[m_right][2][j])
        return faces, c

    def rates(self, u, v, groups):
        """Interior (du/dt, dv/dt) with zero boundary rows, the face fluxes and storage."""
        fo_m, fo_t, gamma, delta = groups
        (d_th, d_t, k_t, k_tm), c = self.coefficients(v)
        dx = self.dx
        gu = np.diff(u) / dx
        gv = np.diff(v) / dx
        q_m = d_th * gv + gamma * d_t * gu
        q_t = k_t * gu + delta * k_tm * gv
        du = np.zeros_like(u)
        dv = np.zeros_like(v)
        dv[1:-1] = fo_m * np.diff(q_m) / dx
        du[1:-1] = fo_t * np.diff(q_t) / (dx * c[1:-1])
        return du, dv, q_m, q_t, c


def _sparsity(n_nodes):
    """Tridiagonal coupling of each node's (u, v) pair, in [u; v] order."""
    band = diags([1.0, 1.0, 1.0], [-1, 0, 1], shape=(n_nodes, n_nodes))
    return bmat([[band, band], [band, band]])


def verify_reference(u0, v0, tau, dx=1e-2):
    """Final (u, v) of the Robin verification case on the whole grid."""
    wall = Wall(LAYOUTS["verify"], dx)
    n = wall.n
    groups = VERIFY_GROUPS
    fo_m, fo_t = groups[0], groups[1]

    def f(t, y):
        u, v = y[:n], y[n:]
        du, dv, q_m, q_t, c = wall.rates(u, v, groups)
        for side, b, sign, q in (("left", 0, 1.0, 0), ("right", n - 1, -1.0, -1)):
            (m_theta, t_t, t_theta), u_inf, v_inf = VERIFY_ROBIN[side]
            dvb = v[b] - v_inf(t)
            phi_m = -m_theta * dvb
            phi_t = -(t_t * (u[b] - u_inf(t)) + t_theta * dvb)
            dv[b] = fo_m * (sign * q_m[q] + phi_m) * 2.0 / dx
            du[b] = fo_t * (sign * q_t[q] + phi_t) * 2.0 / (dx * c[b])
        return np.concatenate([du, dv])

    y0 = np.concatenate([np.full(n, float(u0)), np.full(n, float(v0))])
    # The system is linear in y, so its Jacobian is exact from unit probes.
    base = f(0.0, np.zeros(2 * n))
    jac = np.column_stack([f(0.0, e) - base for e in np.eye(2 * n)])
    sol = solve_ivp(f, (0.0, tau), y0, method="Radau", jac=jac, rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    y = sol.y[:, -1]
    return wall.x, y[:n], y[n:]


def physical_reference(layout_name, t0, v0_by_material, tau, dx, climate):
    """Final (u, v) of a Dirichlet physical case.

    ``climate`` is (time, T_out, theta_out, T_in, theta_in) arrays; the
    boundary nodes follow their linear interpolation, the interior nodes are
    integrated.
    """
    layout = LAYOUTS[layout_name]
    wall = Wall(layout, dx)
    n = wall.n
    m = n - 2
    ts, t_out, th_out, t_in, th_in = climate

    def full(t, y):
        u = np.empty(n)
        v = np.empty(n)
        u[1:-1], v[1:-1] = y[:m], y[m:]
        u[0], v[0] = np.interp(t, ts, t_out), np.interp(t, ts, th_out)
        u[-1], v[-1] = np.interp(t, ts, t_in), np.interp(t, ts, th_in)
        return u, v

    def f(t, y):
        du, dv, _, _, _ = wall.rates(*full(t, y), PHYSICAL_GROUPS)
        return np.concatenate([du[1:-1], dv[1:-1]])

    names = [name for name, _ in layout]
    v_init = np.array([v0_by_material[names[k]] for k in wall.node_mat])
    y0 = np.concatenate([np.full(m, float(t0)), v_init[1:-1]])
    atol = np.concatenate([np.full(m, 1e-7), np.full(m, 1e-11)])
    sol = solve_ivp(f, (0.0, tau), y0, method="BDF", jac_sparsity=_sparsity(m),
                    rtol=1e-9, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    u, v = full(tau, sol.y[:, -1])
    return wall.x, u, v


def re_moisture(layout_name, x, v):
    """Trapezoidal moisture content of the rammed-earth layer."""
    layout = LAYOUTS[layout_name]
    dx = x[1] - x[0]
    start = 0.0
    for name, thickness in layout:
        if name == "re":
            a, b = int(round(start / dx)), int(round((start + thickness) / dx))
            return float(np.trapezoid(v[a:b + 1], dx=dx))
        start += thickness
    raise ValueError(f"layout {layout_name} has no rammed-earth layer")
