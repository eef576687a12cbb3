"""Semi-discrete spatial operator for the coupled two-field system.

Conservative second-order flux differencing on a uniform grid with
harmonic-mean face coefficients.  Interfaces must sit on grid nodes; the
interface node balances one-sided fluxes from each neighbouring layer and
averages the two storage coefficients over its half-cells.  Robin
boundaries enter through finite-volume half-cells, Dirichlet boundaries
are imposed strongly (node values overwritten each stage by the
integrators).

Sign convention for Robin exchange: the published closure expression
(see :func:`apply_robin_closure`) measures the surface *excess* over the
ambient.  A positive excess must drive the state back toward the ambient,
so the operator applies the exchange terms with inflow orientation
(ambient minus surface); the additional flux terms and the absorbed
radiation keep their printed sign and act as inflow (heating/wetting
positive).
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import AssemblyError, ConfigError
from .model import (COEFFICIENT_NAMES, BoundaryForcing, DimensionlessGroups, Grid1D, SideForcing,
                    WallAssembly, _zero)

SourceFn = Callable[[np.ndarray, float], np.ndarray]

# Coefficient order of the operator's tables: the four transport
# coefficients in matrix-block order (uu, uv, vu, vv), then the storage.
_TABLE_ORDER = ("k_t", "k_tm", "d_t", "d_theta", "c_t")


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Coefficients are non-negative; the offset only guards the 0/0 case
    # and is absorbed exactly for any normal-range sum.
    return 2.0 * a * b / (a + b + 1e-300)


def aligned(shape, fill=None) -> np.ndarray:
    """A new C-ordered float64 array of ``shape`` whose data start on a
    64-byte boundary (a cache line), holding ``fill`` (a scalar or an array
    of that shape) when given, else uninitialised.  numpy itself aligns to
    16 bytes only, and where the hot arrays start within their cache lines
    moves an n = 1001 march by several percent."""
    size = math.prod(shape)
    raw = np.empty(size + 8)                # numpy's float64 data are 8-byte aligned at least
    start = -raw.ctypes.data % 64 // 8
    out = raw[start:start + size].reshape(shape)
    if fill is not None:
        out[...] = fill
    return out


def _horner(rows: list, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write at ``v`` into ``out`` the polynomials of v**d terms ``rows``, highest d first."""
    np.multiply(rows[0], v, out)
    out += rows[1]
    for row in rows[2:]:
        out *= v
        out += row
    return out


class SemiDiscreteOperator:
    """Right-hand side of the semi-discrete system plus stability helpers.

    States are stacked (2, n) arrays: row 0 holds u, row 1 holds v.  The
    assembled object is immutable apart from ``rhs_evals``, its work
    arrays and the boundary sides' last ambient values; create one
    operator per run when marching concurrently.
    """

    def __init__(
        self,
        wall: WallAssembly,
        grid: Grid1D,
        groups: DimensionlessGroups,
        forcing: BoundaryForcing,
        source_u: Optional[SourceFn] = None,
        source_v: Optional[SourceFn] = None,
        admissible_box: Optional[tuple] = None,
        seams: tuple = (),
    ):
        """``seams`` lays walls side by side on one grid: each j in it joins
        the wall ending at node j to the one starting at node j + 1 by one
        seam cell.  Every wall's two end nodes are then Dirichlet, with the
        left side's values at its first node and the right side's at its
        last, and their rows are zero in :meth:`rhs` and :meth:`_stencil`."""
        self.wall = wall
        self.grid = grid
        self.groups = groups
        self.forcing = forcing
        self.source_u = source_u
        self.source_v = source_v
        self.admissible_box = admissible_box
        self.rhs_evals = 0

        self.n = grid.node_count
        self.dx = grid.spacing
        spans = wall.node_spans(grid)       # raises unless the grid fits the wall's layers

        # layer_tables[i, d, k] is the v**d coefficient of coefficient k (in
        # _TABLE_ORDER) of layer i, and sides[s, j] the layer on side s of node
        # j (0: its left face, 1: its right face; the end nodes reuse their one
        # face).  The two sides differ only at interface nodes.
        face_layer = np.repeat(np.arange(len(spans)), [b - a for a, b in spans])
        sides = np.stack([np.r_[face_layer[0], face_layer], np.r_[face_layer, face_layer[-1]]])
        terms = max(len(p) for model, _ in wall.layers for p in model.poly)
        layer_tables = np.zeros((len(wall.layers), terms, len(_TABLE_ORDER)))
        for i, (model, _) in enumerate(wall.layers):
            for k, name in enumerate(_TABLE_ORDER):
                p = model.poly[COEFFICIENT_NAMES.index(name)]
                layer_tables[i, :len(p), k] = p
        self._layer_tables, self._sides = layer_tables, sides      # for gershgorin_box_bound
        # A row varies with the state when some layer gives it a nonzero term
        # of degree >= 1.  The pass evaluates the face rows of the one slice
        # (in block order) that holds every varying face row, and the storage
        # if it varies; a row inside the slice that does not vary comes out of
        # Horner's rule as its constant term, bit for bit.
        varies = np.any(layer_tables[:, 1:] != 0, axis=(0, 1)).tolist()
        face_rows = [k for k in range(4) if varies[k]]
        span = slice(0, 0)
        if face_rows:
            step = math.gcd(*np.diff(face_rows).tolist()) or 1
            span = slice(face_rows[0], face_rows[-1] + 1, step)
        rows = list(range(4))[span] + [4] * varies[4]
        self._varies = bool(rows)
        self._scaled = bool(set(rows) & {1, 2})     # k_tm or d_t: flux factors scaled

        # Frozen matrix A: face scale of each block (uu, uv, vu, vv), row factors (0 in the end columns).
        self._scale = np.array([[1.0], [groups.delta], [groups.fo_m * groups.gamma], [groups.fo_m]])
        cm = 1.0 / (self.dx * self.dx)
        self._row = np.pad(np.full((4, self.n - 2), cm), [(0, 0), (1, 1)])
        self._fo_t_cm = np.array(groups.fo_t * cm)

        # Pass work arrays: Horner terms, highest degree first, of the evaluated
        # rows of each node's side-1 layer, their values, (rows, n), the last a
        # varying storage, and the harmonic mean's numerator and denominator.
        # The mean runs on flat views: face j of row r is element r n + j, the
        # element across a row seam lands in the unused last column, and the
        # last step writes the slice's faces.  Scalars are 0-d arrays, which
        # numpy takes faster than Python floats.
        n = self.n
        table = layer_tables[sides[1]][:, ::-1, rows].transpose(1, 2, 0)
        self._table = list(aligned(table.shape, table))
        vals = aligned(table.shape[1:], 0.0)
        m = len(rows) - varies[4]

        # Face arrays, (6, n): face j sits in column j and the last column is
        # unused (zero).  Rows [delta k_tm, k_t, k_tm, d_t, d_theta, gamma d_t]:
        # rows 1-4 are the faces in block order, rows 1 and 5 (cu) turn the u
        # gradient and rows 0 and 4 (cv) the v gradient into the heat (row 0)
        # and moisture (row 1) face fluxes, whose divergence is divided by
        # den = [dx c, dx].  Every row starts at its constant value; a pass
        # overwrites the varying ones.
        fac = aligned((6, n), 0.0)
        self._face_rows, self._faces, self._cu, self._cv = fac[1:5], fac[1:5, :-1], fac[1::4], fac[0::4]
        self._scaled_faces, self._face_scale = fac[0::5, :-1], np.array([[groups.delta], [groups.gamma]])
        const = layer_tables[sides, 0].transpose(0, 2, 1)        # (side, coefficient, n)
        self._faces[:] = _harmonic(const[1, :4, :-1], const[0, :4, 1:])
        self._c = vals[-1] if varies[4] else aligned((n,), 0.5 * (const[0, 4] + const[1, 4]))
        self._den = aligned((2, n), self.dx)
        np.multiply(self._faces[1:3], self._face_scale, out=self._scaled_faces)
        np.multiply(self._c, self.dx, out=self._den[0])
        self._pass = None if self._varies else (self._faces, self._c)

        self._vals, self._harm, dx = vals, None, np.array(self.dx)
        if m:
            num, total = aligned((m, n)), aligned((m, n))       # each on its own cache line
            self._harm = (vals[:m].ravel()[:-1], vals[:m].ravel()[1:], num.ravel()[:-1], total.ravel()[:-1],
                          num[:, :-1], total[:, :-1], self._faces[span], np.array(1e-300))
        self._storage = (dx, self._den[0]) if varies[4] else None

        # RHS work arrays, (2, n) like the state; the last column of cu and
        # cv is zero.  Row-major, each row step of the state or the fluxes is
        # then one flat difference; the two differences across the row seam
        # land on boundary nodes, which the closure overwrites.  Fourier
        # numbers of exactly 1 (as in the physical groups) scale nothing.
        self._grad, self._flux, self._cross = aligned((3, 2, n), 0.0)
        flux, den = self._flux.ravel(), self._den.ravel()
        fo = None if groups.fo_t == groups.fo_m == 1.0 else np.repeat([groups.fo_t, groups.fo_m], n)[1:-1]
        self._work = (self._grad.ravel()[:-1], self._grad, self._grad[0], self._grad[1],
                      self._flux, self._cross, flux[1:-1], flux[:-2], fo, den[1:-1], dx)
        # The closure's reads: the end-face fluxes and the end nodes' columns.
        self._end_flux = self._flux[:, 0:n - 1:max(n - 2, 1)]
        self._end_nodes = (slice(None), slice(None, None, n - 1))

        # Boundary sides as (node, side, orientation of the face flux).
        ends = ((0, _BoundarySide(forcing.left, groups.biot_left, groups.alpha), 1.0),
                (-1, _BoundarySide(forcing.right, groups.biot_right, groups.alpha), -1.0))
        self._robin = [entry for entry in ends if entry[1].robin]
        self._dirichlet = [(j, side) for j, side, _ in ends if not side.robin]
        # The Robin rows' constants, per side: its ambient values, its column
        # in the two-column reads of the state and the end fluxes, its u and v
        # entries of the flat output, the orientation, the exchange
        # coefficients, the Fourier numbers and the v and u rows' denominators
        # dx and dx c (None when the storage varies: read on each call).
        self._closure = [
            (side.ambient, j, j % n, n + j % n, sign, side.biot.m_theta, side.biot.t_t,
             side.biot.t_theta, groups.fo_t, groups.fo_m, self.dx,
             None if varies[4] else self._den.item(j % n))
            for j, side, sign in self._robin]
        # Walls side by side: every wall's two end nodes are Dirichlet, the
        # left side's values at its first node and the right side's at its last.
        self._seams = None
        if seams:
            walls = np.diff([-1, *seams, n - 1])
            if self._robin or source_u or source_v or min(walls) < 2:
                raise AssemblyError(f"walls side by side need Dirichlet sides, no sources and at least "
                                    f"two nodes each; got seams {list(seams)} on {n} nodes")
            (_, left), (_, right) = self._dirichlet
            self._seams = [k for j in seams for k in (j, j + 1)]
            self._dirichlet = [(j, (left, right)[i % 2]) for i, j in enumerate([0, *self._seams, n - 1])]
        # Every Dirichlet entry's index in the state's flat view, and the
        # flat view of their (2, k) values (a flat write costs about half a
        # slice one).
        fixed = [j % n for j, _ in self._dirichlet]
        self._fixed_t, self._fixed_values = None, np.empty((2, len(fixed)))
        self._fixed = np.array(fixed + [j + n for j in fixed], dtype=np.intp)
        self._fixed_flat = self._fixed_values.reshape(-1)

        # Fix-ups at each interface node i: the face left of i in each
        # evaluated row, and i's storage, but a seam cell's face or a Dirichlet
        # node's storage, which no row reads.  Each is (the left layer's terms
        # as first and rest, a constant precomputed; index of the value read;
        # index written; face?) into flat memoryviews of vals and fac.
        self._fixups = []
        for i in np.flatnonzero(sides[0] != sides[1]).tolist() if self._varies else ():
            left = [(p[-1], ()) if not any(p[:-1]) else (p[0], tuple(p[1:]))
                    for p in layer_tables[sides[0, i], ::-1].T[rows].tolist()]
            fixes = [] if i - 1 in seams else [
                (left[r], r * n + i - 1, (1 + k) * n + i - 1, True) for r, k in enumerate(rows[:m])]
            fixes += [(left[-1], m * n + i, m * n + i, False)] if varies[4] and i not in fixed else []
            if fixes:
                self._fixups.append((i, fixes))
        self._fix_views = memoryview(vals.reshape(-1)), memoryview(fac.reshape(-1))

    # -- classification ------------------------------------------------------------

    @property
    def is_linear(self) -> bool:
        """True when the state Jacobian is constant: the exchange terms are
        linear, so only the coefficients can vary."""
        return not self._varies

    # -- coefficients ---------------------------------------------------------------

    def _coefficients(self, v: np.ndarray):
        """Face transport coefficients and nodal storage at moisture ``v``.

        Returns ``(faces, c)``: ``faces`` is a (4, n-1) array of the
        harmonic-mean face values of k_t, k_tm, d_t and d_theta, and ``c``
        the nodal storage, averaged over the two half-cells.  Both are the
        operator's own arrays, valid until its next pass; the pass also
        sets the RHS's flux factors.  Only the rows that vary with the state
        are evaluated, for each node's right-face layer, also its left-face one
        but at interfaces, whose left face and storage are made again in Python
        floats by the same operations.  Elsewhere the storage is s where a
        two-sided pass makes (s + s) * 0.5, equal for any s below 8.9e307.
        """
        if self._varies:
            _horner(self._table, v, self._vals)
            if self._harm is not None:
                left, right, num, total, num_faces, total_faces, out, tiny = self._harm
                np.add(left, right, total)          # 2 a b / (a + b + 1e-300)
                total += tiny
                np.add(left, left, num)             # 2 a, exactly
                num *= right
                np.divide(num_faces, total_faces, out)
            flat_vals, flat_faces = self._fix_views
            for i, fixes in self._fixups:
                x = v.item(i)
                for (b, terms), a_at, at, face in fixes:
                    for term in terms:
                        b = b * x + term
                    a = flat_vals[a_at]
                    if face:
                        flat_faces[at] = (a + a) * b / ((a + b) + 1e-300)
                    else:
                        flat_vals[at] = (b + a) * 0.5
            if self._scaled:
                np.multiply(self._faces[1:3], self._face_scale, self._scaled_faces)
            if self._storage is not None:
                np.multiply(self._c, *self._storage)
            self._pass = (self._faces, self._c)
        return self._pass

    # -- right-hand side ------------------------------------------------------------

    def rhs(self, t: float, y: np.ndarray, coeffs=None, out=None) -> np.ndarray:
        """Time derivatives of the stacked state ``y`` (row 0 u, row 1 v) at time t.

        Returns ``out``, a C-contiguous (2, n) array apart from ``y`` that it
        writes in full, or a new one, so ``du, dv = op.rhs(t, y)`` unpacks.  A caller that holds
        ``_coefficients(y[1])`` passes it as ``coeffs``; a pass that is no
        longer the operator's latest is made again.
        """
        self.rhs_evals += 1
        if self._varies and (coeffs is None or coeffs is not self._pass):
            self._coefficients(y[1])
        grad_flat, grad, grad_u, grad_v, flux, cross, flux_hi, flux_lo, fo, den, dx = self._work
        y_flat = y.ravel()
        np.subtract(y_flat[1:], y_flat[:-1], grad_flat)
        grad /= dx
        np.multiply(self._cu, grad_u, flux)
        np.multiply(self._cv, grad_v, cross)
        flux += cross
        if out is None:
            out = aligned((2, self.n))      # the divergence, closure and Dirichlet zero write it all
        flat = out.ravel()
        mid = flat[1:-1]
        np.subtract(flux_hi, flux_lo, mid)
        if fo is not None:
            mid *= fo
        mid /= den

        if self._closure:
            u_b, v_b = y[self._end_nodes].tolist()
            q_t, q_m = self._end_flux.tolist()
            self._robin_rows(t, u_b, v_b, q_t, q_m, flat)
        if self.source_u is not None:
            out[0] += self.source_u(self.grid.node_positions, t)
        if self.source_v is not None:
            out[1] += self.source_v(self.grid.node_positions, t)
        if self._dirichlet:
            flat[self._fixed] = 0.0
        return out

    def _robin_rows(self, t, u_b, v_b, q_t, q_m, flat, values=None):
        """Write the Robin half-cells' rows of the flat RHS ``flat``: the face
        flux plus the inflow-oriented closure fo ((s - e) + sign q) 2 / den,
        with the flux terms and radiation s and the surface excess
        e = (m_theta dv, t_t du + t_theta dv), from the end nodes' values
        ``u_b``, ``v_b`` and end-face fluxes ``q_t``, ``q_m`` (left, right).
        A side's (u_inf, v_inf, s_m, s_t) is ``values[j]`` (arrays: rows of arrays), else its ambient at t."""
        for ambient, j, ju, jv, sign, m_theta, t_t, t_theta, fo_t, fo_m, den_v, den_t in self._closure:
            u_inf, v_inf, s_m, s_t = ambient(t) if values is None else values[j]
            dv = v_b[j] - v_inf
            if den_t is None:
                den_t = self._den.item(ju)
            e_t = t_t * (u_b[j] - u_inf) + t_theta * dv
            flat[ju] = fo_t * ((s_t - e_t) + sign * q_t[j]) * 2.0 / den_t
            flat[jv] = fo_m * ((s_m - m_theta * dv) + sign * q_m[j]) * 2.0 / den_v

    def boundary_forcing(self, t: float, out: np.ndarray) -> np.ndarray:
        """The Robin rows of rhs(t, 0) of a linear operator, bit for bit, into
        ``out``, a flat (2 n,) array whose other entries it leaves alone.  With
        two Robin sides and no sources, rhs(t, 0) is zero in every other row."""
        zero = [0.0, 0.0]
        self._robin_rows(t, zero, zero, zero, zero, out)
        return out

    def boundary_forcing_at(self, times) -> np.ndarray:
        """The four entries of :meth:`boundary_forcing` at each of the (k, g) ``times``,
        bit for bit, as a (k', g, 2, 2) array [row, time, (u, v), (left, right)]: one
        ambient call per side and time, in order, then array passes.  Rows stop before
        one holding a time whose forcing raises (k' < k), but at row 0 it raises."""
        ambients, got = [entry[0] for entry in self._closure], []
        row = times.shape[1] * len(ambients) * 4
        try:
            for t in times.ravel().tolist():
                for ambient in ambients:
                    got += ambient(t)
        except Exception:       # any forcing error: the step that reaches its time raises it again
            if len(got) < row:
                raise
        # per side, its (u_inf, v_inf, s_m, s_t) at each time of the whole rows: (side, 4, k', g)
        values = np.array(got[:len(got) // row * row]).reshape(-1, times.shape[1], len(ambients), 4)
        values = values.transpose(2, 3, 0, 1)
        rows, zero = {}, [0.0, 0.0]
        with np.errstate(all="ignore"):     # a forcing of inf or nan makes the march diverge, not warn
            self._robin_rows(None, zero, zero, zero, zero, rows, values)
        return np.array([rows[k] for k in sorted(rows)]).transpose(1, 2, 0).reshape(*values.shape[2:], 2, 2)

    def apply_constraints(self, t: float, y: np.ndarray) -> None:
        """Overwrite the Dirichlet nodes of the stacked state with the imposed values at t.

        One write through the flat view of ``y``, a C-contiguous (2, n)
        array, from the k Dirichlet nodes' (u, v), looked up again only when
        ``t`` changes."""
        if not self._dirichlet:
            return
        values = self._fixed_values
        if t != self._fixed_t:
            for i, (_, side) in enumerate(self._dirichlet):
                values[0, i], values[1, i] = side.ambient(t)[:2]
            self._fixed_t = t
        y.ravel()[self._fixed] = self._fixed_flat

    # -- frozen-coefficient matrix ----------------------------------------------------

    def _stencil(self, v=None, coeffs=None, diagonal=False) -> np.ndarray:
        """Entries of the frozen matrix A (see :meth:`frozen_matrix`) per node.

        Returns one (3, 4, n) array, unpacking as ``lower, diag, upper``.
        Row k of each holds one 2x2 block of A in the order uu, uv, vu, vv:
        equation row j of that block has ``lower[k, j]`` in column j-1,
        ``diag[k, j]`` in column j and ``upper[k, j]`` in column j+1.
        Dirichlet rows are zero.  With ``diagonal`` only ``diag`` is made
        and returned, (4, n).  Coefficients are frozen at the (n,) moisture
        row ``v`` (None: all ones) from one coefficient pass, none when
        ``coeffs`` is the operator's latest.  The only code that writes A.
        """
        if coeffs is None or coeffs is not self._pass:
            coeffs = self._coefficients(np.ones(self.n) if v is None else v)
        return self._weights(*coeffs, diagonal)

    def _weights(self, faces, c, diagonal=False) -> np.ndarray:
        """The stencil of :meth:`_stencil` from face values ``faces``, (4, n-1),
        and nodal storage ``c``, (n,).  Each entry's magnitude grows with the
        faces and shrinks with the storage, rounded operation by operation, on
        full-width rows whose end columns it zeroes; the faces' last column is 0."""
        rows = self._face_rows if faces is self._faces else np.hstack([faces, np.zeros((4, 1))])
        row = self._row     # per-node row factors: fo_t cm / c in u rows, cm in v rows
        np.divide(self._fo_t_cm, c[1:-1], row[:2, 1:-1])
        # Interior rows: flux divergence, (scale * face) * row per block.
        weights = np.empty((4, self.n) if diagonal else (3, 4, self.n))
        diag, flat = weights if diagonal else weights[1], rows.ravel()
        diag.flat[0] = 0.0
        np.add(flat[:-1], flat[1:], diag.ravel()[1:])
        diag *= self._scale
        diag *= row
        if not diagonal:
            lower, _, upper = weights
            neg_scaled = -self._scale * rows
            np.multiply(neg_scaled.ravel()[:-1], row.ravel()[1:], lower.ravel()[1:])
            np.multiply(neg_scaled, row, upper)
        weights[..., ::self.n - 1] = 0.0
        # Robin half-cells: half-cell flux plus exchange Jacobian dE_T/du, dE_T/dv, dE_M/du, dE_M/dv
        g, dx = self.groups, self.dx
        for b, side, _ in self._robin:
            biot = side.biot
            jac = [biot.t_t, biot.t_theta, 0.0, biot.m_theta]
            w = np.array([g.fo_t * 2.0 / (dx * c[b])] * 2 + [g.fo_m * 2.0 / dx] * 2)
            factor = np.array([1.0, g.delta, g.gamma, 1.0])
            diag[:, b] = w * (factor * faces[:, b] / dx + jac)
            if not diagonal:
                (upper if b == 0 else lower)[:, b] = -w * factor * faces[:, b] / dx
        if self._seams:
            weights[..., self._seams] = 0.0
        return weights

    def frozen_matrix(self, v=None) -> np.ndarray:
        """Dense matrix A with rhs ~= -A y + b(t), coefficients frozen at moisture ``v``.

        A reads no time, and of the state only the (n,) moisture row ``v``
        (None: all ones).  Row/column order is [u_0..u_{N-1}, v_0..v_{N-1}];
        exact for linear operators.  It costs O(n^2) memory, so only the exact
        reference's propagator builds it (once), with :meth:`dump_matrix` and the tests.
        """
        n = self.n
        lower, diag, upper = self._stencil(v)
        a = np.zeros((2 * n, 2 * n))
        j = np.arange(n)
        for k, (r, col) in enumerate(((0, 0), (0, n), (n, 0), (n, n))):
            a[r + j, col + j] = diag[k]
            a[r + j[1:], col + j[:-1]] = lower[k, 1:]
            a[r + j[:-1], col + j[1:]] = upper[k, :-1]
        return a

    def jacobian_node_blocks(self, v=None, coeffs=None):
        """Per-node 2x2 blocks of A coupling (u_j, v_j) to itself, at moisture ``v``.

        Returns a new (4, node_count) array with rows b_uu, b_uv, b_vu, b_vv.
        These are the terms a three-level scheme must treat implicitly to stay
        stable under two-way cross coupling.  O(n): the stencil's diagonal,
        made alone, from one coefficient pass (none when ``coeffs`` is given).
        """
        return self._stencil(v, coeffs, diagonal=True)

    def gershgorin_lambda_max(self, v=None, coeffs=None) -> float:
        """Infinity-norm row-sum bound of A at moisture ``v``; never below its spectral radius.

        The largest absolute row sum of :meth:`frozen_matrix`, read off the
        stencil in the matrix row's order: |lower| + |diag| + |upper| of uu
        then uv in u rows, of vu then vv in v rows.  O(n), from one
        coefficient pass (none when ``coeffs`` is given).
        """
        return self._row_sum_max(self._stencil(v, coeffs))

    def _row_sum_max(self, weights) -> float:
        w = np.abs(weights)
        return float(w.reshape(3, 2, 2, self.n).sum(axis=(0, 2)).max())

    def gershgorin_box_bound(self) -> float:
        """An upper bound on :meth:`gershgorin_lambda_max` at every moisture
        row inside [v_min, v_max] of the admissible box, Robin rows included;
        inf when there is no box, or when in it a transport coefficient may
        be negative or the storage not positive.

        Each layer polynomial's range over [v_min, v_max] comes from interval
        Horner (exact at degree <= 1); its transport signs are read before it
        is widened (a least value of exactly 0 passes) by 1e-12 of the sum of
        its terms' magnitudes at the box's largest |v|, which bounds the
        rounding of this evaluation and of a pass's.  A face's harmonic mean
        never exceeds its layer's largest value, a node's storage (the mean
        of its half-cells' at one v) is at least the mean of their least
        values, and the stencil's row sums grow with the faces and shrink
        with the storage, rounded operation by operation; so the row sums of
        those extremes bound every state's.  Reads the layer polynomials,
        not a coefficient pass.
        """
        if self.admissible_box is None:
            return math.inf
        _, _, v_min, v_max = self.admissible_box
        big = max(abs(v_min), abs(v_max))
        lo = hi = size = np.zeros(self._layer_tables[:, 0].shape)      # (layer, coefficient)
        with np.errstate(all="ignore"):
            for a in self._layer_tables.transpose(1, 0, 2)[::-1]:     # the v**d terms, highest d first
                ends = np.array([lo * v_min, lo * v_max, hi * v_min, hi * v_max])
                lo, hi, size = ends.min(0) + a, ends.max(0) + a, size * big + abs(a)
            signs = (lo[:, :4] >= 0).all()
            slack = 1e-12 * size
            lo, hi = lo - slack, hi + slack
        if not (signs and np.isfinite(hi).all() and (lo[:, 4] > 0).all()):
            return math.inf
        faces = hi[self._sides[1, :-1], :4].T       # face j lies in the layer right of node j
        left, right = lo[self._sides, 4]            # a pass averages a node's half-cells as (l + r) 0.5
        return self._row_sum_max(self._weights(faces, (left + right) * 0.5))

    def dump_matrix(self, path, v=None) -> None:
        """Write the frozen matrix at moisture ``v`` in coordinate format: 'row col value' lines."""
        a = self.frozen_matrix(v)
        rows, cols = np.nonzero(a)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"% {a.shape[0]} {a.shape[1]} {rows.size}\n")
            fh.writelines(f"{i} {j} {a[i, j]:.17g}\n" for i, j in zip(rows, cols))


class _BoundarySide:
    """One side's boundary data, resolved at assembly into its live terms.

    It gives the ambient values the closure reads; the operator's RHS writes
    the Robin rows from them with constants it binds at assembly, and
    :func:`apply_robin_closure` writes the published form.  Never evaluated:
    ``flux_m``, ``flux_t``, ``g_inf`` when they are the model's zero function;
    radiation when ``alpha * t_g`` is 0; on Dirichlet sides, all but
    ``u_inf``/``v_inf``.  Ambient values are kept for the last time asked
    for: a frozen super-step cycle evaluates them once."""

    def __init__(self, sf: SideForcing, biot, alpha: float):
        self.sf, self.biot = sf, biot
        self.robin = sf.kind == "robin"
        self.rad = alpha * biot.t_g
        live = [fn if self.robin and fn is not _zero else None for fn in (sf.flux_m, sf.flux_t)]
        self.flux_m, self.flux_t = live
        self.g_inf = sf.g_inf if self.robin and self.rad and sf.g_inf is not _zero else None
        self._t = self._values = None

    def ambient(self, t: float) -> tuple:
        """(u_inf, v_inf, s_m, s_t) at time t."""
        if t == self._t:
            return self._values
        sf = self.sf
        u_inf, v_inf = sf.u_inf(t), sf.v_inf(t)
        s_m = 0.0 if self.flux_m is None else self.flux_m(t)
        s_t = ((0.0 if self.flux_t is None else self.flux_t(t))
               + (0.0 if self.g_inf is None else self.rad * self.g_inf(t)))
        self._t, self._values = t, (u_inf, v_inf, s_m, s_t)
        return self._values


def apply_robin_closure(side: str, y: np.ndarray, t: float, groups: DimensionlessGroups,
                        forcing: BoundaryForcing) -> tuple:
    """Published Robin closure values (moisture, heat) for one side of the (2, n) state ``y``.

    Returns the surface-excess form: additional flux terms plus exchange
    terms ordered surface-minus-ambient plus the absorbed radiation.  The
    operator itself applies the exchange part with the opposite (inflow)
    orientation; see the module docstring.
    """
    sf = forcing.side(side)
    if sf.kind != "robin":
        raise ConfigError(f"{side} side is not a Robin boundary")
    biot = groups.biot_left if side == "left" else groups.biot_right
    u, v = y[:, 0 if side == "left" else -1].tolist()
    u_inf, v_inf, s_m, s_t = _BoundarySide(sf, biot, groups.alpha).ambient(t)
    dv = v - v_inf
    return s_m + biot.m_theta * dv, s_t + (biot.t_t * (u - u_inf) + biot.t_theta * dv)

