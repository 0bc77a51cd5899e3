"""Suite-wide hypothesis profile: derandomized examples and no per-example deadline,
so property tests repeat exactly and do not fail on a slow machine."""

from hypothesis import settings

settings.register_profile("hkxor", derandomize=True, deadline=None)
settings.load_profile("hkxor")
