import json
import sys
from pathlib import Path

import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="session")
def calibration() -> dict:
    """Frozen critical value and brute-force oracle truth for the synthetic objective."""
    return json.loads((FIXTURES / "calibration.json").read_text())


@pytest.fixture()
def spawned(monkeypatch) -> list:
    """Every child process an ExternalEvaluator starts during the test, in start order."""
    from adastrat.evaluators import ExternalEvaluator

    children = []
    spawn = ExternalEvaluator._spawn

    def counted(self, *args):
        children.append(spawn(self, *args))
        return children[-1]

    monkeypatch.setattr(ExternalEvaluator, "_spawn", counted)
    return children
