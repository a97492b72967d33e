import pytest

from groupcut.rationals import (
    Q,
    QZERO,
    RationalParseError,
    format_rational,
    lcm_denominators,
    parse_rational,
    snap_to_denominator,
)


def test_parse_fraction_forms():
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational("-2/5") == Q(-2, 5)
    assert parse_rational(" 7/14 ") == Q(1, 2)
    assert parse_rational("7") == 7
    assert parse_rational("-3") == -3
    assert parse_rational("0") == QZERO


def test_parse_decimal_is_exact():
    # decimal strings denote exact rationals, never binary floats
    assert parse_rational("0.125") == Q(1, 8)
    assert parse_rational("0.1") == Q(1, 10)
    assert parse_rational("-2.5") == Q(-5, 2)
    assert parse_rational("1e-3") == Q(1, 1000)
    assert parse_rational("2.5E2") == 250


@pytest.mark.parametrize("bad", ["", "  ", "x", "1/0", "1//2", "1/2/3", "3.1.4"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


def test_format_round_trip(rng):
    assert format_rational(Q(3, 4)) == "3/4"
    assert format_rational(Q(5)) == "5"
    assert format_rational(Q(-1, 2)) == "-1/2"
    assert format_rational(QZERO) == "0"
    for _ in range(200):
        x = Q(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        assert parse_rational(format_rational(x)) == x


def test_lcm_denominators():
    assert lcm_denominators([Q(1, 2), Q(1, 3), Q(5)]) == 6
    assert lcm_denominators([Q(1, 4), Q(3, 8)]) == 8
    assert lcm_denominators([]) == 1
    assert lcm_denominators([Q(2), Q(-3)]) == 1


def test_snap_to_denominator():
    assert snap_to_denominator(Q(333333, 1000000), 10) == Q(1, 3)
    assert snap_to_denominator(Q(1, 3), 100) == Q(1, 3)
    # already representable values are fixed points
    assert snap_to_denominator(Q(7, 10), 10) == Q(7, 10)


def test_snap_recovers_noisy_grid_values(rng):
    # simulated solver output: grid value plus tiny decimal noise
    for _ in range(100):
        den = rng.randint(2, 50)
        num = rng.randint(0, den)
        noise = Q(rng.randint(-9, 9), 10 ** 9)
        assert snap_to_denominator(Q(num, den) + noise, den) == Q(num, den)
