"""Every test starts with the package's per-process caches empty: a cache
that an earlier test warmed would hide a fault that a later one plants."""

import pytest

from deutsch_paths import cli, strip

# each cache as (module, name): its module-level dict or list.
# tests/test_source.py fails on a private module-level dict or list in the
# package that this table leaves out.
CACHES = [(strip, "_SERIES"), (cli, "_AREA_BY_SUM"), (cli, "_AREA_BY_GF")]


@pytest.fixture(autouse=True)
def cold_caches(monkeypatch):
    for module, name in CACHES:
        monkeypatch.setattr(module, name, type(getattr(module, name))())
