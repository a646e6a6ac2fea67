"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic and reruns are bit-identical; no example database replays
# earlier failures, and slow examples are never flagged as errors.
settings.register_profile("woesim", derandomize=True, deadline=None, database=None)
settings.load_profile("woesim")
