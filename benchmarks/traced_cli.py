"""Run one cptgroup CLI command under the tracer and save the trace.

Usage: python traced_cli.py TRACE_OUT COMMAND [ARGS...]

`cptgroup` must be importable (run.py sets PYTHONPATH to the checkout's
src).  The exit code is the command's.
"""

import json
import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from cptgroup import cli

    t = tracer.Tracer().install()
    try:
        return cli.main(argv)
    finally:
        t.uninstall()
        with open(out, "w") as fh:
            json.dump(t.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
