"""Package metadata consistency.

``pyproject.toml`` and ``repro.__version__`` drifted once (1.1.0 vs 1.4.0);
these tests pin them together so a release bump touches both or fails CI.
"""

import pathlib
import re

import pytest

import repro

try:
    import tomllib
except ImportError:  # Python < 3.11
    tomllib = None

_PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def _pyproject_version() -> str:
    text = _PYPROJECT.read_text(encoding="utf-8")
    if tomllib is not None:
        return tomllib.loads(text)["project"]["version"]
    match = re.search(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert match is not None, "version field not found in pyproject.toml"
    return match.group(1)


def test_pyproject_version_matches_package():
    assert _pyproject_version() == repro.__version__


def test_installed_metadata_matches_package():
    """When the package is actually installed (not just on PYTHONPATH), the
    distribution metadata must agree with ``repro.__version__`` too."""
    from importlib import metadata

    try:
        installed = metadata.version("repro-approx-selection")
    except metadata.PackageNotFoundError:
        pytest.skip("package not installed as a distribution")
    assert installed == repro.__version__


def test_numpy_is_a_runtime_dependency():
    """The scoring kernels run on numpy: it is a dependency, not an extra."""
    text = _PYPROJECT.read_text(encoding="utf-8")
    if tomllib is not None:
        project = tomllib.loads(text)["project"]
        assert project["dependencies"] == ["numpy"]
        assert "fast" not in project.get("optional-dependencies", {})
    else:
        assert re.search(r'^dependencies = \["numpy"\]$', text, flags=re.MULTILINE)
        assert not re.search(r"^fast = ", text, flags=re.MULTILINE)
