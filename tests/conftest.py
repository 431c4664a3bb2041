import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def _corrupt(tables, a, b, n, k):
    """Flip the sign of entry (n, k) in the integer rows of ``tables.table(a, b)``
    and return ``tables``.  Rows up to n + 10 are built first, from the clean
    row, so the flipped entry is the only wrong one among them."""
    table = tables.table(a, b)
    table.rows(n + 10)
    row = list(table._rows[n])
    row[k] = -row[k]
    table._rows[n] = tuple(row)
    return tables


@pytest.fixture
def corrupt():
    """``corrupt(tables, a, b, n, k)``: ``tables`` with the sign of entry (n, k)
    of its (a, b) table flipped."""
    return _corrupt
