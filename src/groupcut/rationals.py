"""Exact rational scalars for the whole package.

Every numeric quantity here is a rational number; floats never enter any
computation path. Q is the stdlib Fraction; the hot kernels (simplex,
double description, additivity tables) work on integers over shared
denominators and meet Q only at their boundaries.
"""

from fractions import Fraction
from math import gcd

Q = Fraction
QZERO = Q(0)
QONE = Q(1)


class RationalParseError(ValueError):
    """A string did not parse as an exact rational."""


def parse_rational(text):
    """Parse 'p/q', 'p', or a plain decimal string into a Q, exactly.

    Decimal strings map to the exact rational they denote (0.25 -> 1/4);
    no binary floating point is involved.
    """
    s = text.strip()
    if not s:
        raise RationalParseError("empty rational literal")
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            d = int(den)
            if d == 0:
                raise RationalParseError("zero denominator in %r" % text)
            return Q(int(num), d)
        if "." in s or "e" in s or "E" in s:
            return Q(s)
        return Q(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, RationalParseError):
            raise
        raise RationalParseError("bad rational literal %r" % text) from exc


def format_rational(x):
    """Render as 'p/q', or 'p' when the denominator is 1."""
    n, d = x.numerator, x.denominator
    if d == 1:
        return str(n)
    return "%d/%d" % (n, d)


def lcm_denominators(values):
    """Least common multiple of the denominators of an iterable of Q."""
    out = 1
    for v in values:
        d = v.denominator
        out = out // gcd(out, d) * d
    return out


def snap_to_denominator(x, max_denominator):
    """Best rational approximation with denominator <= max_denominator."""
    return Q(x).limit_denominator(max_denominator)
