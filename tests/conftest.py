"""Hypothesis profiles for the test suite.

The default profile keeps Hypothesis' 100 examples, so every test runs the
count it declares.  ``pytest --hypothesis-profile deep`` runs 10 times as
many; tests that scale their count by the loaded profile through
``examples`` (the kernel tests in test_matrix_kernel.py, and the JSON writer
and option-table properties in test_cli.py) follow it.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000)


def examples(n):
    """Settings for n examples under the default profile, scaled with the
    profile pytest loads: 10 n under ``--hypothesis-profile deep``."""
    return settings(max_examples=n * settings().max_examples // 100,
                    deadline=None)
