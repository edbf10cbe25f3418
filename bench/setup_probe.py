"""Time what every command-line invocation pays before it does any work.

Run in a fresh interpreter as ``python3 setup_probe.py SRC_DIR``.  Prints
one JSON object: milliseconds to import the package and its CLI module,
and milliseconds to build the grammar catalogs (the full model grammar,
every preset restriction and the two-equation catalog).
"""

import json
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    import narmaxtag
    import narmaxtag.cli  # the console entry point imports it too

    t1 = time.perf_counter()
    narmaxtag.build_narmax_grammar()
    narmaxtag.build_nbj_grammar()
    for preset in narmaxtag.GrammarPreset:
        narmaxtag.restrict(preset)
    t2 = time.perf_counter()
    print(
        json.dumps(
            {
                "import_ms": (t1 - t0) * 1e3,
                "grammar_ms": (t2 - t1) * 1e3,
                "module": narmaxtag.__file__,
            }
        )
    )
