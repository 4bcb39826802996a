from hypothesis import settings

# few, fixed examples keep the suite fast and repeatable; a test that needs
# more states its own settings
settings.register_profile("bicchain", max_examples=25, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("bicchain")
