"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests without installing the package (src layout).
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.datagen import DatasetGenerator, GeneratorParameters, company_names  # noqa: E402


@pytest.fixture(scope="session")
def company_strings() -> list[str]:
    """A small, diverse set of company-name strings used across tests."""
    return [
        "Morgan Stanley Group Inc.",
        "Goldman Sachs Group",
        "AT&T Incorporated",
        "IBM Incorporated",
        "AT&T Inc.",
        "Beijing Hotel",
        "Beijing Labs",
        "Hotel Beijing",
        "Stanley Morgan Group Incorporated",
        "Silicon Valley Group, Inc.",
        "Pacific Gas and Electric Company",
        "Granite Construction Incorporated",
    ]


@pytest.fixture(scope="session")
def small_dataset():
    """A small generated dataset with ground-truth clusters (shared, read-only)."""
    clean = company_names(count=80, seed=3)
    generator = DatasetGenerator(clean)
    parameters = GeneratorParameters(
        size=400,
        num_clean=60,
        distribution="uniform",
        erroneous_fraction=0.6,
        edit_extent=0.15,
        token_swap_rate=0.2,
        abbreviation_rate=0.5,
        seed=11,
    )
    return generator.generate(parameters)


@pytest.fixture()
def memory_backend():
    from repro.backends import MemoryBackend

    return MemoryBackend()


@pytest.fixture()
def sqlite_backend():
    from repro.backends import SQLiteBackend

    backend = SQLiteBackend()
    yield backend
    backend.close()


class CountingTokenizer:
    """Wraps a tokenizer, counting ``tokenize()`` calls.

    Equal only to itself and hashable by identity, so predicates meant to
    share a corpus core -- everything one engine fits on a relation, or the
    shards of one fit -- must be handed the same instance.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def tokenize(self, text):
        self.calls += 1
        return self.inner.tokenize(text)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture()
def counting_tokenizer() -> CountingTokenizer:
    """A counting wrapper around the default q-gram tokenizer (``q=2``)."""
    from repro.text.tokenize import QgramTokenizer

    return CountingTokenizer(QgramTokenizer(q=2))
