import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from qminfind import grover, qsearch

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
def empty_ladder_shelf_and_hit_tables():
    # ``grover.ladder`` keeps ladders across calls, so a test that patches
    # ``_reflect``, ``_measured`` or ``GroverLadder`` must not read states an
    # earlier test computed: every test starts from an empty shelf.  The
    # analytic hit tables of ``qsearch`` are kept in the same way, so every
    # test starts from an empty store too.
    grover._shelf.cache_clear()
    qsearch._hit_tables.cache_clear()
