"""A material's coefficient tuples evaluated for the tests."""


def horner(coeffs, v):
    """The low-to-high polynomial ``coeffs`` at ``v`` by Horner's rule: from 0.0,
    ``out * v + ck`` with the highest term first, the order of the operator's
    coefficient pass, so that its values compare bitwise."""
    out = 0.0
    for ck in reversed(coeffs):
        out = out * v + ck
    return out
