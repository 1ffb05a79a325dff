"""The differential equivalence harness.

Every bulk fast path in the tree keeps its original word-at-a-time form in
``reference.py``, beside these tests; the tests in this package run both
and assert the outcomes are observationally identical -- same values, same exceptions,
same counters, same simulated microseconds, byte-identical pack images.

Three layers:

* ``test_words_equivalence.py`` -- hypothesis properties, fast == reference
  on arbitrary inputs (WORD_MASK edges, odd byte lengths, error cases).
* ``test_drive_equivalence.py`` -- identical command sequences replayed
  through the fast drive and the reference drive (including torn writes
  and checksum-bad sectors), compared outcome-for-outcome.
* ``test_golden_images.py`` -- pinned seed workloads
  (mount -> write -> scavenge -> compact -> serve) against checked-in
  digests: the permanent regression tripwire.

Each fast path has one branch and needs no optional package.  Most tests
here run twice, with numpy loaded and with ``import numpy`` failing (see
``conftest.py``), and ``test_numpy_fallback.py`` runs a golden workload in
a fresh process that cannot import numpy; ``test_packet_equivalence.py``
also feeds numpy scalars to ``Packet`` where numpy happens to be installed.
"""
