"""Run the ``repro-hdpll`` CLI, optionally with layer tracing installed.

Usage: ``python3 e2ebench/daemon.py [--trace-out FILE] serve ...``.  With
``--trace-out`` the wrappers of ``layers.py`` are installed before the
daemon starts, and the recorded spans and counts are written to FILE
when it exits (after its SIGTERM drain).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path.insert(0, HERE)
    from repro.harness.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv)
    import layers

    tracer = layers.Tracer()
    layers.install(tracer)
    code = cli_main(argv)
    with open(trace_out, "w") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
