"""Shared test setup."""
import json
import warnings

import pytest

from linevidence import DegenerateFitWarning
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
    seed, shared by the acceptance gate and the CLI tests.

    Criterion 1's degenerate fit at c = 0 is recorded in the report, and no
    ``DegenerateFitWarning`` escapes the run.
    """
    out = tmp_path_factory.mktemp("verify")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateFitWarning)
        code = main(["verify", "--out", str(out)])
    path = out / "verify_report.json"
    assert json.loads(path.read_text())["warnings"] == [
        {
            "claim": "noise_variance_table",
            "category": "DegenerateFitWarning",
            "message": "c=0: residual is zero, area maximizer pinned at the lower bound",
        }
    ]
    return code, path
