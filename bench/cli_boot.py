"""Start ``qmerge.cli.main`` with the benchmark's span wrappers installed.

    python3 bench/cli_boot.py SPANS_JSON OP_ID -- qmerge arguments...

Used for each child process of a traced ``cli`` run: the wrappers are the
ones the in-process workloads use, the spans (tagged with OP_ID) are written
to SPANS_JSON at exit, and stdout is whatever ``main`` prints.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import qmerge.cli  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    store = tracer.SpanStore()
    store.op_id = op_id
    patches = tracer.install_spans(store)
    try:
        code = qmerge.cli.main(argv)
    finally:
        tracer.restore(patches)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(store.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
