"""Put the benchmark's modules and the repo's ``src`` on ``sys.path``.

Run with ``python3 -m pytest perfbench/tests -q`` from the repo root.
"""

import pathlib
import sys

sys.dont_write_bytecode = True

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
