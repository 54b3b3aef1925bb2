"""Time the set-up a fresh process pays: import fel, then load_maps, build,
validate and solve_ndhs for every PRESET:LEVEL given.

Usage: python3 perfbench/probe.py PRESET:LEVEL [PRESET:LEVEL ...]
Prints one JSON object: {"setup_s": ...}, timed from the first statement of
this script.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fel  # noqa: E402
import fel.cli  # noqa: E402,F401  (every CLI invocation imports it)

for target in sys.argv[1:]:
    preset, level = target.split(":")
    maps, name = fel.load_maps(preset)
    fel.solve_ndhs(fel.build(maps, int(level), name=name))
print(json.dumps({"setup_s": time.perf_counter() - START}))
