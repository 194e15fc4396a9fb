"""Shared pytest configuration for the tier-1 suite.

Registers the ``ci`` hypothesis profile: a derandomized, deeper search for
the property tests CI runs on their own, e.g.
``python -m pytest tests/test_sched_reference.py --hypothesis-profile=ci``.
Without the option the suite keeps hypothesis' default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=500)
