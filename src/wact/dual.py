"""Forward-mode dual numbers with one derivative slot per chart coordinate.

A value is a float or an array with one entry per sample point; the
derivative `d` is a single array whose leading axis holds the slots, so each
node operation is one numpy call for a whole block of points (the "vector
mode" of Griewank & Walther, Evaluating Derivatives, ch. 3).  The slots of
`d` may themselves be Dual (an object array), so nesting the evaluation
gives exact second derivatives from the same arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def real_part(x):
    """Innermost float or array of a possibly nested dual number."""
    while isinstance(x, Dual):
        x = x.val
    return x


def check(bad, message: str):
    """Raise DomainError if `bad` is set at any point, naming the first one."""
    if np.any(bad):
        raise DomainError(message, int(np.argmax(bad)) if np.ndim(bad) else None)


class Dual:
    """Value plus an array of partial derivatives (slot axis first).

    An operand that is a plain array is a container of independent numbers,
    so operations with one defer to numpy, which applies them entrywise.
    """

    __slots__ = ("val", "d")

    def __init__(self, val, d):
        self.val = val
        self.d = d if isinstance(d, np.ndarray) else np.asarray(d)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.d!r})"

    def __neg__(self):
        return Dual(-self.val, -self.d)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.d + other.d)
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(self.val + other, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.d - other.d)
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(self.val - other, self.d)

    def __rsub__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(other - self.val, -self.d)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.d * other.val + self.val * other.d)
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(self.val * other, self.d * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.val / other.val
            return Dual(q, (self.d - q * other.d) / other.val)
        if isinstance(other, np.ndarray):
            return NotImplemented
        return Dual(self.val / other, self.d / other)

    def __rtruediv__(self, other):
        if isinstance(other, np.ndarray):
            return NotImplemented
        q = other / self.val
        return Dual(q, (-q * self.d) / self.val)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.val), cos(x.val) * x.d)
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -(sin(x.val) * x.d))
    return np.cos(x)


def tan(x):
    if isinstance(x, Dual):
        t = tan(x.val)
        sec2 = 1.0 + t * t
        return Dual(t, sec2 * x.d)
    return np.tan(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, e * x.d)
    return np.exp(x)


def log(x):
    check(real_part(x) <= 0.0, "log of non-positive value")
    if isinstance(x, Dual):
        return Dual(log(x.val), x.d / x.val)
    return np.log(x)


def sqrt(x):
    if isinstance(x, Dual):
        check(real_part(x) <= 0.0, "sqrt derivative at non-positive value")
        s = sqrt(x.val)
        return Dual(s, x.d / (2.0 * s))
    check(x < 0.0, "sqrt of negative value")
    return np.sqrt(x)


def ipow(x, n: int):
    """Integer power by repeated squaring; valid for any base."""
    if n == 0:
        return 1.0
    if n < 0:  # the power, not only the base, may be zero: it can underflow
        power = ipow(x, -n)
        check(real_part(power) == 0.0, "zero raised to a negative power")
        return 1.0 / power
    result = None
    base = x
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def rpow(x, y):
    """General power for positive base, via exp(y * log(x))."""
    check(real_part(x) <= 0.0, "power of non-positive base with non-integer exponent")
    return exp(y * log(x))
