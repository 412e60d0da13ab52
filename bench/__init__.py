"""The whole-system benchmark (see ``bench/README.md``).

``python3 bench/run.py`` needs no ``PYTHONPATH``: importing this package
puts the checkout's ``src/`` on ``sys.path``.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
