import subprocess
import sys

import pytest

from conftest import FIXTURES

SCRIPTS = FIXTURES.parent / "scripts"


@pytest.mark.parametrize("name", ["suspension_table.py", "lys_survey.py",
                                  "conjecture_sweep.py"])
def test_script_runs(name):
    done = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
