"""The rounding error constant gamma, the size check check_size and the
error classes shared by the cone computations, DomainError and
DegenerateInputError. No command's verdict reads a bare tolerance: each
threshold is gamma times a stated scale, or the verdict is decided exactly.
"""


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


def check_size(value, minimum, what):
    """value as an int of at least minimum, else a DomainError naming what;
    operator.index refuses a float or a string (2.7, "8") that int() takes."""
    from operator import index  # in sys.modules from interpreter start-up
    try:
        n = index(value)
    except TypeError:
        n = None
    if n is None or n < minimum:
        raise DomainError(f"{what} must be an integer of at least {minimum}, got {value!r}")
    return n
