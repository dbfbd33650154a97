"""Run the reillylab command line in a fresh process, optionally traced.

    python3 perfbench/bootstrap.py [--trace SPANS_FILE OP PARENT] CLI_ARGS...

With ``--trace`` the layer wrappers are installed before ``cli.main``
runs, its spans are tagged with operation OP under the parent span
PARENT, and they are written to SPANS_FILE when the command ends.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reillylab.cli  # noqa: E402


def main(argv):
    if argv[:1] != ["--trace"]:
        return reillylab.cli.main(argv)
    import layers
    import spans
    spans_file, op, parent = argv[1:4]
    tracer = spans.Tracer(tag="p%d." % os.getpid(), op=int(op), parent=parent)
    restore = spans.install(tracer, layers.TARGETS)
    try:
        return reillylab.cli.main(argv[4:])
    finally:
        restore()
        with open(spans_file, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
