"""Path set-up for the ledger's own tests.

Run with ``python -m pytest benchmarks/ledger/tests -q`` from the root of a
checkout.  The harness modules import each other as top-level modules (they
sit next to ``run.py``, which is run as a script), so the harness directory
goes on ``sys.path`` next to ``src``.
"""

import sys
from pathlib import Path

_LEDGER = Path(__file__).resolve().parent.parent
_SRC = _LEDGER.parent.parent / "src"
for _path in (str(_SRC), str(_LEDGER)):
    if _path not in sys.path:
        sys.path.insert(0, _path)
