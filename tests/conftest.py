import pytest


@pytest.fixture(autouse=True)
def private_cache_home(tmp_path, monkeypatch):
    """Keep every test's cache writes (detect --calibrate) inside its tmp_path."""
    cache = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache
