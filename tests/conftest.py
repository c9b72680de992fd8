import os

import hypothesis

hypothesis.settings.register_profile("default", deadline=None, max_examples=60)
hypothesis.settings.register_profile("fast", deadline=None, max_examples=15)
hypothesis.settings.register_profile("thorough", deadline=None, max_examples=1000)
# HYPOTHESIS_PROFILE=thorough runs every property test on 1000 examples
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
