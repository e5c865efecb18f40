import os
from pathlib import Path

from hypothesis import HealthCheck, settings

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
