import os
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

# The suite runs the package from its source tree, without an install. The
# absolute path of `src` keeps `hoarun` importable whatever the working
# directory: in this process, and in every child process the tests start
# (`python -m hoarun`, `perfbench/child.py`), which inherits PYTHONPATH and
# may run in a temporary directory. Nothing else in the child environment is
# set, so each child still draws its own hash seed.
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")
