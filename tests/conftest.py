import pytest

from lgrnok import valuation


@pytest.fixture
def plant(monkeypatch):
    """`monkeypatch.setattr` for a fault planted in a table that the flow
    oracle's row table is built from (`plabic._path_table`,
    `plabic.dual_cuts`, ...): each plant empties the row table, so that the
    oracle reads the plant, and the test's end empties it again, so that
    no planted row outlives the test."""
    def setattr(target, name, value):
        monkeypatch.setattr(target, name, value)
        valuation._flow_rows.cache_clear()

    yield setattr
    valuation._flow_rows.cache_clear()
