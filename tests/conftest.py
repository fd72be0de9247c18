"""Shared test setup."""
import warnings

# When a property test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, which imports libcst; libcst emits a
# DeprecationWarning at import, and the error::DeprecationWarning filter turns
# it into an INTERNALERROR that ends the run after that one failure.  Imported
# once here with the warning ignored, the plugin's import finds it cached.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:  # no libcst; the plugin guards the same import
    pass
