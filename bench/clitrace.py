"""Run one groupshift CLI invocation with the per-layer wrappers in place.

    python3 bench/clitrace.py TOTALS.json <groupshift arguments...>

The exit code is the CLI's; the layer totals go to TOTALS.json.
"""

import sys

import groupshift.cli
import tracing


def main():
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.install()
    try:
        return groupshift.cli.main(argv)
    finally:
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
