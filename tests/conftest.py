"""Shared test setup."""
import warnings

import pytest

from linevidence.cli import main

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


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """Exit code and report path of one ``linevidence verify`` at its default
    seed, shared by the acceptance gate and the CLI tests."""
    out = tmp_path_factory.mktemp("verify")
    return main(["verify", "--out", str(out)]), out / "verify_report.json"
