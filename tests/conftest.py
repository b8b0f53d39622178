import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def curve_rows(capsys):
    """Runs ``trinegame curve`` with the given flags and returns its data
    rows, each a list of the printed fields."""
    from trinegame.cli import main

    def run(*argv):
        assert main(["curve", *argv]) == 0
        return [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]

    return run
