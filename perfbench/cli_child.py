"""Run one `agrepair` CLI command with the benchmark's tracing installed.

    python3 perfbench/cli_child.py --trace-out FILE --op N --phase loop -- <agrepair args>

Installs the same wrappers as a traced in-process run, calls
`agrepair.cli.main` with the remaining arguments, writes the spans and
totals to FILE (also when the command fails) and exits with the command's
status.  The parent benchmark merges FILE into its own trace.
"""

from __future__ import annotations

import argparse
import sys

import tracer as tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--phase", choices=("setup", "loop"), required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tr = tracing.Tracer()
    tr.phase, tr.op = args.phase, args.op
    tracing.install(tr)
    from agrepair import cli

    try:
        return cli.main(command)
    finally:
        tracing.write_json(args.trace_out, tr.to_json())


if __name__ == "__main__":
    sys.exit(main())
