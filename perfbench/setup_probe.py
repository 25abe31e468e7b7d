"""Set-up as a user pays it: a fresh interpreter imports the CLI and
generates the given family members, then prints when it was ready.

    python3 perfbench/setup_probe.py mesi moesi ...

The last stdout line is JSON: ``ready`` (``time.monotonic()`` when the
members were generated, comparable with the parent's clock),
``import_s`` and ``generate_s``.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.monotonic()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.cli  # noqa: E402,F401  (the import every CLI call pays)

t1 = time.monotonic()
from repro.protocols.family import build_variant  # noqa: E402

systems = [build_variant(key) for key in sys.argv[1:]]
t2 = time.monotonic()
for system in systems:
    system.db.close()
print(json.dumps({"ready": t2, "import_s": t1 - t0, "generate_s": t2 - t1}))
