"""Exact rational scalars for the whole package.

Every numeric quantity here is a rational number; floats never enter any
computation path. gmpy2's mpq is used when importable and the stdlib
Fraction is the drop-in fallback; only the Fraction path is measured in
this repository. Code elsewhere should only go through Q / the helpers
below so the two backends stay interchangeable.
"""

from fractions import Fraction

try:
    from gmpy2 import mpq as Q  # type: ignore
    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only on bare installs
    Q = Fraction
    HAVE_GMPY2 = False

QZERO = Q(0)
QONE = Q(1)


class RationalParseError(ValueError):
    """A string did not parse as an exact rational."""


def to_fraction(x):
    """Convert a Q (either backend) or int to a stdlib Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(int(x.numerator), int(x.denominator))


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
            return Q(Fraction(s))
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


def is_integral(x):
    return x.denominator == 1


def lcm_denominators(values):
    """Least common multiple of the denominators of an iterable of Q."""
    out = 1
    for v in values:
        d = int(v.denominator)
        g = _gcd(out, d)
        out = out // g * d
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def snap_to_denominator(x, max_denominator):
    """Best rational approximation with denominator <= max_denominator.

    Continued-fraction based (stdlib limit_denominator); returns a Q.
    """
    f = to_fraction(x).limit_denominator(max_denominator)
    return Q(f.numerator, f.denominator)
