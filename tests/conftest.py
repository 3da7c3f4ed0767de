import pytest

import canoma.engine as engine


@pytest.fixture(autouse=True)
def fresh_worker_pool():
    """Each test starts without the engine's kept worker pool, and a pool
    it starts ends with it, so no test's pool size -- some monkeypatch the
    CPU count -- carries over to the next."""
    engine._reset_pool()
    yield
    kept = engine._pool
    engine._reset_pool()
    if kept is not None:
        kept.shutdown()
