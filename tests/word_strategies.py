"""What the word rule admits and refuses, as hypothesis strategies.

A word is an ``int`` in 0..0xFFFF, an int subclass such as ``bool``
included (:func:`repro.words.check_word`).  ``good`` draws values the
rule admits; ``bad`` draws values it refuses, one way or another: out of
range, a float whatever its value, a numpy integer, not a number at all.
The packet check's oracle property, the relay property and the property
over every door words come in by share them.
"""

from enum import IntEnum

from hypothesis import strategies as st

from repro.words import WORD_MASK

try:
    import numpy  # a test-only dependency: its scalars are foreign ints
except ImportError:  # not installed here: plain Python values only
    numpy = None


class Register(IntEnum):
    ZERO = 0
    TOP = WORD_MASK
    OVER = WORD_MASK + 1


#: Values check_word accepts: plain words, and int subclasses in range.
good = st.one_of(st.integers(0, WORD_MASK), st.booleans(),
                 st.sampled_from([Register.ZERO, Register.TOP]))

#: Values it rejects, one way or another.
bad = st.one_of(
    st.integers(max_value=-1),
    st.just(WORD_MASK + 1),
    st.integers(min_value=2 ** 64),
    st.just(Register.OVER),
    st.floats(),
    st.just(3.0),
    st.none(),
    st.text(max_size=2),
    st.sampled_from([] if numpy is None else [
        numpy.uint16(7), numpy.int64(-1), numpy.int32(WORD_MASK + 1)]),
)
