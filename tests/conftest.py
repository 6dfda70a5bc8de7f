"""Suite-wide settings: hypothesis draws the same examples on every run and writes nothing here."""
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# hypothesis also caches the constants it reads from local source files; keep
# that cache in a directory removed at exit instead of in the checkout
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)
