"""The suite's self-tests need the program (``src``) and the repo root on the path."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
