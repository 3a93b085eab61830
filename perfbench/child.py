"""Traced `leafgauge` command for the verified_build workload.

    python3 perfbench/child.py --spans FILE --op N build-gauge FIXTURE ...

Imports leafgauge from the checkout's `src`, installs the tracer, runs
`leafgauge.cli.main` on the remaining arguments, writes the spans to FILE
and exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tracing import Tracer
from workloads import import_program

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--op", type=int, required=True)
    args, argv = parser.parse_known_args()
    import_program(ROOT)
    import leafgauge.cli

    tracer = Tracer()
    tracer.op = args.op
    tracer.install()
    try:
        code = leafgauge.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
