import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_library_does_not_import_scipy():
    # a fresh interpreter: the test modules import scipy.integrate themselves
    code = ("import sys\n"
            "import causalqed.cli, causalqed.qed2, causalqed.adiabatic\n"
            "import causalqed.splitting, causalqed.induction, causalqed.fock, causalqed.wick\n"
            "loaded = sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.'))\n"
            "assert not loaded, f'scipy modules imported: {loaded}'\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
