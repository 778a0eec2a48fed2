"""Set-up probe, run in a fresh interpreter: import atlm, load and prepare datasets.

Usage: python3 perfbench/probe.py SRC_DIR SPECS_JSON

SPECS_JSON is a JSON list whose items are bundled dataset names or
``[csv_path, schema_path]`` pairs.  Prints one JSON line with the import
time, the load time (seconds) and the file atlm was imported from.
"""

import json
import sys
import time


def main(argv) -> int:
    sys.path.insert(0, argv[1])
    start = time.perf_counter()
    import atlm
    imported = time.perf_counter()
    for spec in json.loads(argv[2]):
        if isinstance(spec, str):
            atlm.load_builtin(spec)
        else:
            csv_path, schema_path = spec
            atlm.apply_recipe(atlm.load_csv(csv_path, atlm.load_schema(schema_path)),
                              atlm.PrepRecipe())
    loaded = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "load_s": loaded - imported,
                      "atlm_file": atlm.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
