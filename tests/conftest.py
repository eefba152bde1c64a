import os
from pathlib import Path

# One global seed for every Monte Carlo test.  The value is arbitrary but
# fixed; each test picks its own stream id so draws never collide, and all
# assertions are deterministic given the pair.
SEED = 20260809

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env():
    """Environment for a ``python -m widemimo`` subprocess started in any cwd.

    Puts the absolute ``src`` path first on PYTHONPATH, so a relative entry
    such as ``PYTHONPATH=src`` no longer decides whether the package imports.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
