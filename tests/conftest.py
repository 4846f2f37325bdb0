import os
from pathlib import Path

import pytest

import qknorm


@pytest.fixture
def src_env():
    """The environment for a subprocess that imports this qknorm."""
    src = str(Path(qknorm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
