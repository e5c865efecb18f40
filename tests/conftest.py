import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from qminfind import grover

# Some tests start a child interpreter, which inherits os.environ but not
# pytest's ``pythonpath`` setting, so the checkout's sources go on its path.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Statistical code paths make individual examples uneven in runtime, so
# the deadline is off; derandomize keeps CI deterministic.
settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def empty_both_table_stores():
    # ``grover`` keeps the exact ladders and the analytic hit tables of the
    # most recent n across calls, each in a store of its own, so a test that
    # patches ``_reflect``, ``_measured``, ``GroverLadder`` or a bound must
    # not read tables an earlier test computed: every test starts from two
    # empty stores.
    for store in (grover._shelf, grover._hit_tables):
        store.cache_clear()
