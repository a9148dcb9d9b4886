"""Serve ``POST /map`` from this checkout's vnfcmap on 127.0.0.1 until a line
arrives on standard input.

Prints the bound port as its first line. With ``--trace-out`` it installs the
benchmark's wrappers before serving and, on stop, writes the tracer's
aggregates and every ``handle_map`` interval there as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

from common import import_program


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--model", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import_program()
    from vnfcmap import service

    tracer = None
    if args.trace_out:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    server = service.make_server(0, default_model=args.model)
    # A short poll interval lets shutdown return promptly when told to stop.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.readline()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    if tracer is not None:
        tracer.uninstall()
        intervals = [
            (start, end) for _, _, parent, name, start, end in tracer.spans
            if parent is None and name.startswith("service.handle_map.")
        ]
        Path(args.trace_out).write_text(
            json.dumps({"snapshot": tracer.snapshot(), "handle_map_intervals": intervals})
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
