"""Make a bare checkout importable by the CLI processes that tests start.

`pythonpath` in pyproject.toml puts src on this process's sys.path; the
child interpreters that some tests run (`python -m hqec.cli`, the benchmark
self-test) need it on PYTHONPATH as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *filter(None, _paths)])
