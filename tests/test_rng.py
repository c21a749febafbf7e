import numpy as np
import pytest

from irrvis import substream


def test_same_key_gives_same_draws():
    assert np.array_equal(substream(7, 3).random(5), substream(7, 3).random(5))


def test_distinct_keys_give_distinct_draws():
    a = substream(7, 3).random(5)
    assert not np.array_equal(a, substream(7, 4).random(5))
    assert not np.array_equal(a, substream(8, 3).random(5))


def test_streams_do_not_interfere():
    s1 = substream(5, 1)
    s1.random(1000)
    assert np.array_equal(substream(5, 2).random(3), substream(5, 2).random(3))


def test_large_index_supported():
    # replicate-family offsets go past 2**32
    a = substream(3, (1 << 33) + 17).random()
    b = substream(3, (1 << 33) + 16).random()
    assert a != b


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        substream(-1, 0)
    with pytest.raises(ValueError):
        substream(0, -1)


@pytest.mark.parametrize("seed, index", [(0, 1.5), (1.0, 0), (True, 0), (0, False),
                                         (0, "1"), (0, 2 ** 64), (2 ** 70, 0)])
def test_non_integer_or_too_large_inputs_rejected(seed, index):
    # a float or bool is not truncated to a stream: substream(0, 1.5) is not
    # stream 1
    with pytest.raises(ValueError, match="seed and stream index"):
        substream(seed, index)


def test_numpy_integers_and_the_largest_index_accepted():
    assert np.array_equal(substream(np.uint64(7), np.int32(3)).random(3),
                          substream(7, 3).random(3))
    substream(0, 2 ** 64 - 1).random()
