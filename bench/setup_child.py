"""Set-up time in a fresh interpreter: import rtcheck, then read, parse and
build every config named on the command line.  Prints the seconds taken.

    PYTHONPATH=src python3 bench/setup_child.py bench/configs/delta_n1.json
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import rtcheck  # noqa: E402,F401
from rtcheck.config import build_model, parse_config  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        build_model(parse_config(fh.read()))
print(repr(time.perf_counter() - t0))
