"""Hypothesis profiles for the test suite.

The default profile keeps Hypothesis' 100 examples, so every test runs the
count it declares.  ``pytest --hypothesis-profile deep`` runs 10 times as
many; tests that scale their count by the loaded profile (the kernel tests
in test_matrix_kernel.py) follow it.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000)
