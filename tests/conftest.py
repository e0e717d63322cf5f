"""Shared expensive fixtures: generated lakes and built D3L indexes.

Session-scoped so the whole suite indexes each lake once. Tests must not
mutate these (treat the frames and D3L objects as read-only).
"""
import os

import pytest

from repro.baselines.aurum import Aurum
from repro.baselines.tus import TUS
from repro.core.ranking import D3L
from repro.lake import generator, tables

# The root conftest reads this lazily when the session fixture first runs
# (after this module is imported). Test lakes are tiny; 64 shuffle
# partitions is pure scheduling overhead at this scale.
os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")

# Keep test logs readable: drop the console progress bars. The JVM has not
# launched yet (the session fixture is lazy), so amending the submit args
# here still takes effect.
_args = os.environ.get("PYSPARK_SUBMIT_ARGS", "")
if _args and "showConsoleProgress" not in _args:
    os.environ["PYSPARK_SUBMIT_ARGS"] = _args.replace(
        "pyspark-shell", "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )


@pytest.fixture(scope="session")
def clean_lake():
    """Synthetic-style lake: no dirtiness, 3 derivations per base."""
    return generator.generate_lake(derivations_per_base=3, rows=60, noise=0.0, seed=11)


@pytest.fixture(scope="session")
def noisy_lake():
    """Smaller-Real-style lake: renames + format perturbations + nulls."""
    return generator.generate_lake(derivations_per_base=3, rows=60, noise=0.6, seed=12)


@pytest.fixture(scope="session")
def clean_cells(spark, clean_lake):
    return tables.cells_df(spark, clean_lake.tables).cache()


@pytest.fixture(scope="session")
def noisy_cells(spark, noisy_lake):
    return tables.cells_df(spark, noisy_lake.tables).cache()


@pytest.fixture(scope="session")
def clean_attrs(clean_cells):
    return tables.attrs_df(clean_cells).cache()


@pytest.fixture(scope="session")
def d3l_clean(spark, clean_cells):
    d = D3L.build(spark, clean_cells)
    d.materialize()
    return d


@pytest.fixture(scope="session")
def d3l_noisy(spark, noisy_cells):
    d = D3L.build(spark, noisy_cells)
    d.materialize()
    return d


@pytest.fixture(scope="session")
def tus_clean(spark, clean_cells):
    t = TUS.build(spark, clean_cells)
    t.materialize()
    return t


@pytest.fixture(scope="session")
def aurum_clean(spark, clean_cells):
    return Aurum.build(spark, clean_cells)
