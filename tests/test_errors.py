"""check_positive: the one rule for a setting that must be a finite positive number."""

from __future__ import annotations

import math

import pytest

from sendwhen.errors import ConfigError, DataError, DomainError, check_positive


@pytest.mark.parametrize("value", [0, 0.0, -0.0, -1.5, -1e-300, math.nan, math.inf, -math.inf,
                                   None, "1", True, 10**400],
                         ids=["0", "0.0", "-0.0", "-1.5", "-1e-300", "nan", "inf", "-inf",
                              "None", "str", "True", "10**400"])
@pytest.mark.parametrize("error", [ConfigError, DataError, DomainError])
def test_refused_values_raise_the_named_error(value, error):
    with pytest.raises(error) as info:
        check_positive(value, "rate", error)
    assert type(info.value) is error
    assert str(info.value) == f"rate must be finite and > 0, got {value!r}"


def test_the_default_error_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^horizon must be finite and > 0, got -1$"):
        check_positive(-1, "horizon")


@pytest.mark.parametrize("value,expected", [(1, 1.0), (3, 3.0), (2.5, 2.5), (5e-324, 5e-324),
                                            (1.7976931348623157e308, 1.7976931348623157e308)])
def test_accepted_values_come_back_as_floats(value, expected):
    got = check_positive(value, "rate")
    assert type(got) is float and got == expected


@pytest.mark.parametrize("value", [0, 0.0, -0.0, 2, 1e-300])
def test_or_zero_accepts_zero(value):
    assert check_positive(value, "c_send", or_zero=True) == float(value)


@pytest.mark.parametrize("value", [-1e-300, -1, math.nan, math.inf, None, False])
def test_or_zero_refuses_below_zero_and_non_numbers(value):
    with pytest.raises(DataError) as info:
        check_positive(value, "phase_hours", DataError, or_zero=True)
    assert str(info.value) == f"phase_hours must be finite and >= 0, got {value!r}"
