"""A sector's packed words always equal its object views, re-packed.

A ``Sector`` holds its header and label twice: as the packed word lists
the drive reads and writes (``header_words``/``set_header_words``,
``label_words``/``set_label_words``) and as lazily built ``Header`` and
``Label`` objects (``header =``, ``label =``).  Writing through either pair
must leave the other one current.  The drive reads a part's words from
storage on every command, and the reference drive writes through the
object setters, so the drive differential relies on this property; here it
is pinned on its own, for any order of writes, reads and copies.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.disk import DiskImage, tiny_test_disk
from repro.disk.sector import HEADER_WORDS, LABEL_WORDS, Header, Label

ADDRESS = 5

_word = st.integers(min_value=0, max_value=0xFFFF)
_header_words = st.lists(_word, min_size=HEADER_WORDS, max_size=HEADER_WORDS)
_label_words = st.lists(_word, min_size=LABEL_WORDS, max_size=LABEL_WORDS)

#: One step: a write through either setter pair, a read of either view
#: (which fills that view's cache), or a copy of the sector.
_steps = st.one_of(
    st.tuples(st.just("header ="), _header_words),
    st.tuples(st.just("set_header_words"), _header_words),
    st.tuples(st.just("label ="), _label_words),
    st.tuples(st.just("set_label_words"), _label_words),
    st.tuples(st.sampled_from(["read header", "read header_words",
                               "read label", "read label_words", "copy"]),
              st.none()),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(_steps, max_size=12))
def test_packed_words_equal_the_repacked_views(numpy_mode, steps):
    image = DiskImage(tiny_test_disk())
    sector = image.sector(ADDRESS)
    header, label = sector.header_words(), sector.label_words()
    for step, words in steps:
        if step == "header =":
            sector.header = Header.unpack(words)
            header = words
        elif step == "set_header_words":
            sector.set_header_words(list(words))
            header = words
        elif step == "label =":
            sector.label = Label.unpack(words)
            label = words
        elif step == "set_label_words":
            sector.set_label_words(list(words))
            label = words
        elif step == "read header":
            sector.header
        elif step == "read header_words":
            sector.header_words()
        elif step == "read label":
            sector.label
        elif step == "read label_words":
            sector.label_words()
        else:
            image.set_sector(ADDRESS, sector)
            sector = image.sector(ADDRESS)
        assert sector.header_words() == sector.header.pack() == header
        assert sector.label_words() == sector.label.pack() == label
