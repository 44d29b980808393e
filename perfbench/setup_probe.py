"""Set-up probe, run in a fresh interpreter: import repgame, then build the
run configuration from a generated document.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON

Prints one JSON line, ``{"import_s": ..., "build_s": ...}``, once ready.
"""
import json
import sys
import time


def main() -> int:
    src, doc_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import repgame  # noqa: F401
    from repgame import config

    imported = time.perf_counter()
    with open(doc_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    loaded = time.perf_counter()
    config.build_run_config(doc, source=doc_path)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - loaded}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
