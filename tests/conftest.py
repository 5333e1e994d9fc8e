"""The CLI tests run `python -m evalmat` in a subprocess. Put this checkout's
src/ on that subprocess's PYTHONPATH, as pytest's `pythonpath` setting does
for the test process, so a bare `python -m pytest` needs no install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
