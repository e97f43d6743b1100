"""Run one lerch-kit command with the benchmark's tracer installed.

    PYTHONPATH=src python3 bench/cli_child.py SPANS_FILE ARG...

Behaves like `python -m lerchkit ARG...` (same output, same exit code)
and, when the command ends, writes the spans of the lerchkit layers to
SPANS_FILE.
"""

import sys


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from lerchkit import cli

    import spans
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        return tracer.span("cli.main", cli.main)(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
