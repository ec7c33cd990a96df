import random
import sys

import pytest

from k3lag import serialize as ser


def _reference(value, one, what="vector"):
    """The per-entry decoder: each entry through dec_int or dec_frac."""
    if not isinstance(value, list):
        raise ser.InputError("bad_vector", f"{what}: expected an array")
    return tuple(one(c, what) for c in value)


def _outcome(decode, value):
    try:
        got = decode(value)
    except ser.InputError as exc:
        return "raised", exc.code, str(exc)
    return "value", got, [type(x) for x in got], [getattr(x, "denominator", 1) for x in got]


def _int_text(rng, limit):
    kind = rng.randrange(6)
    if kind == 0:
        return "-0"
    if kind == 1:
        return "0" * rng.randint(1, 3) + str(rng.randint(0, 999))  # leading zeros
    if kind == 2:
        return rng.choice(("", "-")) + "9" * limit  # at the digit limit
    return str(rng.randint(-10**12, 10**12))


def _frac_text(rng, limit):
    if rng.random() < 0.4:
        return _int_text(rng, limit)
    q = rng.choice((str(rng.randint(1, 10**6)), "0" * rng.randint(1, 2) + "7", "9" * limit))
    return _int_text(rng, limit) + "/" + q


DECODERS = [(ser.dec_ivec, ser.dec_int, _int_text), (ser.dec_qvec, ser.dec_frac, _frac_text)]


@pytest.mark.parametrize("decode, one, draw", DECODERS, ids=["ivec", "qvec"])
def test_vector_decoders_match_the_per_entry_reference(decode, one, draw):
    rng = random.Random(5150)
    limit = sys.get_int_max_str_digits()
    for _ in range(500):
        value = [draw(rng, limit) for _ in range(rng.randint(0, 24))]
        want = _outcome(lambda v: _reference(v, one), value)
        assert want[0] == "value"
        assert _outcome(decode, value) == want


MALFORMED = [
    "1", {"0": "1"}, ("1",), 7, None, [1], ["1", None], [True], ["1", ""], ["1,2"],
    ["2", "1,2", "3"], [" 1"], ["+1"], ["1\n"], ["١٢"], ["1", "2" * 5000],
    ["1/0"], ["1/-2"], ["1/2/3"], ["1/" + "3" * 5000], ["1", "1/2", "x"],
]


@pytest.mark.parametrize("decode, one, draw", DECODERS, ids=["ivec", "qvec"])
@pytest.mark.parametrize("value", MALFORMED)
def test_vector_decoders_refuse_like_the_per_entry_reference(decode, one, draw, value):
    want = _outcome(lambda v: _reference(v, one), value)
    assert want[0] == "raised"
    assert _outcome(decode, value) == want
