"""Run one vnfcmap command with the benchmark's wrappers installed.

    python3 -X importtime perfbench/cli_child.py TRACE_OUT COMMAND [ARGS...]

Writes the tracer's aggregates to TRACE_OUT as JSON and exits with the
command's exit code. Sweep workers are forked from this process; what they
do shows in the command's wall time but not in the aggregates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import import_program


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import_program()
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    from vnfcmap import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        Path(trace_out).write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
