"""Forward-error constants and error classes shared by the cone
computations: the equality bound EQ_ABS, the rounding error constant
gamma, DomainError and DegenerateInputError.
"""

from __future__ import annotations

# Bound on residuals that count as "equals zero". Its one reader is the
# on-face residual of faces.verify_catalogue (the sweep and nice3d read no
# tolerance); no option sets it. It is not derived from a forward-error
# bound yet (the margins of verify_catalogue are: see there).
EQ_ABS = 1e-9


class DomainError(ValueError):
    """A parameter lies outside its documented domain."""


class DegenerateInputError(ValueError):
    """Input is rank-deficient or otherwise unusable for the operation."""


def gamma(n):
    """n*u / (1 - n*u), u = 2**-53: the relative error bound of n rounded
    operations (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.1)."""
    nu = n * 2.0**-53
    if not 0.0 <= nu < 1.0:
        raise DomainError(f"gamma_n needs 0 <= n*u < 1, got n = {n}")
    return nu / (1.0 - nu)

