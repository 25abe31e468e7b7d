"""The runtime needs nothing beyond the standard library.

A fresh interpreter drives the paper's pipeline — CLI import, every
family member's generation, the v5 deadlock analysis with its cycle
enumeration, and the Figure 4 simulation — and then lists every
top-level module it loaded that is neither the standard library nor
``repro`` itself.  That list must be empty: a third-party import
anywhere on the path fails here even when the package is installed.
"""

import os
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SCRIPT = textwrap.dedent("""
    import sys
    preloaded = set(sys.modules)

    import repro.cli
    from repro.protocols.family import SPECS, build_variant
    from repro.sim import figure4_scenario

    for key in SPECS:
        system = build_variant(key)
        print(key, len(system.analyze_deadlocks("v5").cycles()))
        if key == "mesi":
            print(figure4_scenario(system, "v5").run().status)
        system.db.close()
    loaded = {m.split(".")[0] for m in set(sys.modules) - preloaded}
    # ``__mp_main__`` is multiprocessing's alias of ``__main__``.
    print(sorted(loaded - set(sys.stdlib_module_names)
                 - {"repro", "__mp_main__"}))
""")


def test_pipeline_loads_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "mesi 3", "deadlock", "moesi 3", "mesif 3", "mesi-vc6 0",
        "mesi-noio 3", "[]", "",
    ]
