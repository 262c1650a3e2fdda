"""errors.py's Record is the base of every value type, series included."""

from quotdt.errors import Record
from quotdt.series import Series, macmahon


def test_a_series_is_a_record_with_its_own_repr():
    s = macmahon(2)
    assert isinstance(s, Record)
    assert repr(s) == "Series('1', '1', '3')"
    assert s == Series((1, 1, 3)) and hash(s) == hash(Series((1, 1, 3)))
    # equal only to a series: not to its coefficients, nor to its Record key
    assert s != s.coeffs and s != (s.coeffs,)
