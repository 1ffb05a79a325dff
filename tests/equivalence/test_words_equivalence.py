"""Fast == reference for the word-substrate primitives.

Hypothesis drives arbitrary inputs through each bulk operation and its
word-at-a-time twin from ``reference.py``; deterministic cases pin edge
sizes and the sizes the benchmark workloads draw.
"""

import operator
import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.equivalence.reference import (
    bytes_to_words_reference,
    checksum_reference,
    merge_check_reference,
    random_bytes_reference,
    words_to_bytes_reference,
)
from repro.words import (
    WORD_MASK,
    bytes_to_words,
    checksum,
    random_bytes,
    words_to_bytes,
)
from repro.disk.drive import merge_check

try:
    import numpy  # a test-only dependency: its scalars are foreign ints
except ImportError:  # not installed here: plain Python values only
    numpy = None

#: The numpy_mode fixture is the same for every generated example, so
#: the function-scoped-fixture check is moot.
eq_settings = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)

words_lists = st.lists(st.integers(min_value=0, max_value=WORD_MASK), max_size=600)

#: Deterministic sizes: empty and tiny; 10, which :func:`random_bytes`
#: draws in exactly three rounds at seed 1979; 128 and 2048 and their
#: neighbours (the old strategy switches); and 32,640 and 32,895, the
#: smallest and largest upload the ``serve_mix`` benchmark workload
#: draws.
PINNED_SIZES = [0, 1, 2, 3, 10, 127, 128, 129, 2047, 2048, 2049, 4099,
                32_640, 32_895]


class TestChecksum:
    @eq_settings
    @given(words_lists)
    def test_arbitrary(self, numpy_mode, data):
        assert checksum(data) == checksum_reference(data)

    def test_threshold_sizes(self, numpy_mode):
        rng = random.Random(7)
        for n in PINNED_SIZES:
            data = [rng.randrange(WORD_MASK + 1) for _ in range(n)]
            assert checksum(data) == checksum_reference(data)

    def test_all_word_mask(self, numpy_mode):
        for n in PINNED_SIZES:
            data = [WORD_MASK] * n
            assert checksum(data) == checksum_reference(data)


class TestBytesToWords:
    @eq_settings
    @given(st.binary(max_size=600), st.integers(min_value=0, max_value=255))
    def test_arbitrary(self, numpy_mode, data, pad):
        assert bytes_to_words(data, pad) == bytes_to_words_reference(data, pad)

    def test_threshold_sizes_odd_and_even(self, numpy_mode):
        rng = random.Random(11)
        for n in PINNED_SIZES:
            for extra in (0, 1):  # even and odd byte counts
                data = bytes(rng.randrange(256) for _ in range(n + extra))
                assert bytes_to_words(data, 0xAB) == bytes_to_words_reference(data, 0xAB)

    @pytest.mark.parametrize("n", [2, 3, 2049])
    def test_non_buffer_input_rejected(self, numpy_mode, n):
        # Only a bytes-like buffer packs: a plain list of ints raises at
        # any length, even or odd.
        with pytest.raises(TypeError):
            bytes_to_words([0x41] * n)


class TestWordsToBytes:
    @eq_settings
    @given(words_lists, st.integers(min_value=-1, max_value=1300))
    def test_arbitrary(self, numpy_mode, data, nbytes):
        if nbytes > 2 * len(data):
            with pytest.raises(ValueError):
                words_to_bytes(data, nbytes)
            with pytest.raises(ValueError):
                words_to_bytes_reference(data, nbytes)
        else:
            assert words_to_bytes(data, nbytes) == words_to_bytes_reference(data, nbytes)

    def test_threshold_sizes(self, numpy_mode):
        rng = random.Random(13)
        for n in PINNED_SIZES:
            data = [rng.randrange(WORD_MASK + 1) for _ in range(n)]
            assert words_to_bytes(data) == words_to_bytes_reference(data)
            if n:  # odd truncation exercises the nbytes path
                assert words_to_bytes(data, 2 * n - 1) == words_to_bytes_reference(data, 2 * n - 1)

    @eq_settings
    @given(words_lists, st.integers(min_value=0, max_value=600),
           st.one_of(st.integers(max_value=-1), st.integers(min_value=WORD_MASK + 1)))
    def test_bad_words_rejected(self, numpy_mode, data, at, bad):
        # One word outside 0..0xFFFF anywhere raises rather than being
        # masked, and so does one word that is not an int.
        with pytest.raises(OverflowError):
            words_to_bytes(data[:at] + [bad] + data[at:])
        with pytest.raises(TypeError):
            words_to_bytes(data[:at] + [float(bad)] + data[at:])

    #: Words ``array('H')`` accepts: in-range ints, bools and, where
    #: numpy is installed, in-range numpy integers (through ``__index__``).
    accepted = st.one_of(
        st.integers(min_value=0, max_value=WORD_MASK), st.booleans(),
        *([] if numpy is None else [
            st.integers(0, WORD_MASK).map(numpy.uint16),
            st.integers(0, 127).map(numpy.int8),
            st.integers(0, WORD_MASK).map(numpy.int64)]))
    #: Words it refuses, with ``OverflowError`` or ``TypeError``.
    refused = st.one_of(
        st.integers(max_value=-1), st.integers(min_value=WORD_MASK + 1),
        st.floats(),
        *([] if numpy is None else [
            st.integers(-128, -1).map(numpy.int8),
            st.integers(WORD_MASK + 1, 2 ** 40).map(numpy.int64),
            st.just(numpy.True_)]))

    @eq_settings
    @given(st.lists(accepted, max_size=300), st.lists(st.tuples(
        st.integers(min_value=0, max_value=300), refused), max_size=2))
    def test_mixed_words_pack_or_raise_as_array_does(self, data, planted):
        for at, word in planted:
            data.insert(at, word)
        try:
            array("H", data)
        except (OverflowError, TypeError) as error:
            with pytest.raises(type(error)) as raised:
                words_to_bytes(data)
            assert raised.type is type(error)
        else:  # the reference shifts plain ints: numpy's own would wrap
            values = [operator.index(word) for word in data]
            assert words_to_bytes(data) == words_to_bytes_reference(values)

    def test_float_words_rejected(self):
        # At the size where packing once switched to numpy, which
        # truncated 1.5 to 1 instead of raising.
        with pytest.raises(TypeError):
            words_to_bytes([1.5] * 2048)

    @pytest.mark.parametrize("nbytes", [-2, -100])
    def test_negative_nbytes_rejected_before_work(self, numpy_mode, nbytes):
        with pytest.raises(ValueError, match="nbytes must be -1"):
            words_to_bytes([1, 2, 3], nbytes)
        with pytest.raises(ValueError, match="nbytes must be -1"):
            words_to_bytes_reference([1, 2, 3], nbytes)


class TestRandomBytes:
    """Stream-position equivalence: same draws, same leftover RNG state."""

    @pytest.mark.parametrize("count", PINNED_SIZES)
    def test_same_bytes_and_same_stream_position(self, numpy_mode, count):
        a, b = random.Random(1979), random.Random(1979)
        assert random_bytes(a, count) == random_bytes_reference(b, count)
        # The next draw from each RNG must agree: the bulk form consumed
        # exactly as many Mersenne Twister outputs as the loop.
        assert a.getrandbits(64) == b.getrandbits(64)

    @eq_settings
    @given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=0, max_value=5000))
    def test_arbitrary_seeds(self, numpy_mode, seed, count):
        a, b = random.Random(seed), random.Random(seed)
        assert random_bytes(a, count) == random_bytes_reference(b, count)
        assert a.random() == b.random()


class TestMergeCheck:
    """A label check compares against the platter's 7-word list, a value
    check against its 256-word tuple: both sizes, both disk types."""

    sizes = st.sampled_from([7, 256])

    @staticmethod
    def draw_buffer(data, size, as_tuple=False):
        words = data.draw(st.lists(st.integers(min_value=0, max_value=WORD_MASK),
                                   min_size=size, max_size=size))
        return tuple(words) if as_tuple else words

    @eq_settings
    @given(sizes, st.booleans(), st.data())
    def test_arbitrary(self, numpy_mode, size, as_tuple, data):
        expected = self.draw_buffer(data, size)
        disk_words = self.draw_buffer(data, size, as_tuple)
        assert merge_check(expected, disk_words) == merge_check_reference(expected, disk_words)

    @eq_settings
    @given(sizes, st.booleans(), st.data())
    def test_wildcards_and_forced_match(self, numpy_mode, size, as_tuple, data):
        # Build an expected buffer that matches except where wildcarded,
        # with an optional planted mismatch: all three regimes in one case.
        disk_words = self.draw_buffer(data, size, as_tuple)
        expected = list(disk_words)
        for i in data.draw(st.sets(st.integers(min_value=0, max_value=size - 1))):
            expected[i] = 0  # wildcard
        mismatch_at = data.draw(st.none() | st.integers(min_value=0, max_value=size - 1))
        if mismatch_at is not None and expected[mismatch_at] != 0:
            expected[mismatch_at] = (disk_words[mismatch_at] ^ 1) or 1
        assert merge_check(expected, disk_words) == merge_check_reference(expected, disk_words)

    def test_exact_equality_fast_path(self, numpy_mode):
        words = [1, 2, 3, 4, 5, 6, 7]
        assert merge_check(words, list(words)) == merge_check_reference(words, words)
        value = tuple(range(256))
        effective, mismatch = merge_check(list(value), value)
        assert (effective, mismatch) == merge_check_reference(list(value), value)
        assert type(effective) is list
