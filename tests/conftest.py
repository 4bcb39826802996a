import os

from hypothesis import settings

# few, fixed examples keep the suite fast and repeatable; a test that needs
# more states its own settings
settings.register_profile("bicchain", max_examples=25, deadline=None, derandomize=True,
                          database=None)
# many fresh examples for a deep run of chosen property tests, selected with
# BICCHAIN_HYPOTHESIS_PROFILE=deep
settings.register_profile("deep", max_examples=500, deadline=None, derandomize=False,
                          database=None)
settings.load_profile(os.environ.get("BICCHAIN_HYPOTHESIS_PROFILE", "bicchain"))
