"""The operator's stencil as it was made on interior slices, before the
full-width rows: a frozen copy, against which the current one must be
byte-equal."""
import numpy as np


def interior_weights(op, faces, c, diagonal=False) -> np.ndarray:
    """``op._weights(faces, c, diagonal)`` on interior slices: each block's
    lower, diag and upper on columns 1..n-2 of zeroed rows, from the
    (4, n-1) faces and (n,) storage, then the Robin ends and the seams."""
    row = np.full((4, op.n - 2), 1.0 / (op.dx * op.dx))    # fo_t cm / c in u rows, cm in v rows
    np.divide(op._fo_t_cm, c[1:-1], row[:2])
    if diagonal:
        weights = diag = np.zeros((4, op.n))
    else:
        weights = np.zeros((3, 4, op.n))
        lower, diag, upper = weights
        neg_scaled = -op._scale * faces
        np.multiply(neg_scaled[:, :-1], row, lower[:, 1:-1])
        np.multiply(neg_scaled[:, 1:], row, upper[:, 1:-1])
    mid = np.add(faces[:, :-1], faces[:, 1:], diag[:, 1:-1])
    mid *= op._scale
    mid *= row
    g, dx = op.groups, op.dx
    for b, side, _ in op._robin:
        biot = side.biot
        jac = [biot.t_t, biot.t_theta, 0.0, biot.m_theta]
        w = np.array([g.fo_t * 2.0 / (dx * c[b])] * 2 + [g.fo_m * 2.0 / dx] * 2)
        factor = np.array([1.0, g.delta, g.gamma, 1.0])
        diag[:, b] = w * (factor * faces[:, b] / dx + jac)
        if not diagonal:
            (upper if b == 0 else lower)[:, b] = -w * factor * faces[:, b] / dx
    if op._seams:
        weights[..., op._seams] = 0.0
    return weights
