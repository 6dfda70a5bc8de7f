"""Suite-wide settings: hypothesis draws the same examples on every run and writes nothing here."""
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
# the seeded sweep of the whole-CLI property (--hypothesis-profile=whole-cli --hypothesis-seed=N): fresh
# draws per seed, many more than the default run's; only that test reads the draw count
settings.register_profile("whole-cli", derandomize=False, database=None, deadline=None, max_examples=1000)

# hypothesis also caches the constants it reads from local source files; keep
# that cache in a directory removed at exit instead of in the checkout
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)
