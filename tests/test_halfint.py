import pytest

from qmarkov import HalfInt, InvalidArgumentError, m_values


def test_construction_stores_twice_the_value():
    assert HalfInt(3).twice == 3
    assert HalfInt(0).as_float() == 0.0
    assert HalfInt(-5).as_float() == -2.5


def test_twice_must_be_an_integer():
    with pytest.raises(InvalidArgumentError):
        HalfInt(1.5)
    with pytest.raises(InvalidArgumentError):
        HalfInt("1")
    with pytest.raises(InvalidArgumentError):
        HalfInt(True)


@pytest.mark.parametrize(
    "text,twice",
    [("2", 4), ("-1", -2), ("0", 0), ("1/2", 1), ("-3/2", -3), ("25/2", 25), ("+5/2", 5)],
)
def test_parse_accepts_integers_and_halves(text, twice):
    assert HalfInt.parse(text).twice == twice


@pytest.mark.parametrize("text", ["1/3", "0.5", "", "3/", "/2", "a", "1 / 2", "2/4", "--1"])
def test_parse_rejects_everything_else(text):
    with pytest.raises(InvalidArgumentError):
        HalfInt.parse(text)


def test_str_round_trips_exactly():
    for twice in range(-9, 10):
        v = HalfInt(twice)
        assert HalfInt.parse(str(v)) == v
    assert str(HalfInt(1)) == "1/2"
    assert str(HalfInt(-3)) == "-3/2"
    assert str(HalfInt(4)) == "2"


def test_arithmetic_and_ordering():
    assert -HalfInt(5) == HalfInt(-5)


def test_m_values_descend_from_s_to_minus_s():
    ms = m_values(HalfInt(3))
    assert ms == (HalfInt(3), HalfInt(1), HalfInt(-1), HalfInt(-3))
    assert m_values(HalfInt(0)) == (HalfInt(0),)
    assert len(m_values(HalfInt(50))) == 51
