"""Make ``repro`` (under ``src/``) and ``perfbench`` importable.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for entry in (_ROOT / "src", _ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
