import pytest

from hitbounds import corpus


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for the test's duration.

    Returns the list the wrapper appends each call's positional arguments to.
    """

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install


@pytest.fixture(scope="session")
def corpus_sample():
    """A slice of the seeded corpus for module-level property tests."""
    return [corpus.corpus_graph(i) for i in range(60)]


@pytest.fixture(scope="session")
def full_corpus():
    """The full 1000-graph seeded corpus used by the acceptance criteria."""
    return corpus.standard_corpus()
