"""Run one workload of the QASOM benchmark and print its metrics.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload solo_unique --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
command exits with 1 when an output check fails and with 2 when it cannot
run at all; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from multiprocessing import resource_tracker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("solo_unique", "churn_process")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Worker processes end when their runtime closes; terminating leftovers
    is the backstop for an error path.  Starting a process with the
    ``spawn`` method also launches multiprocessing's resource tracker,
    which would outlive this interpreter unless stopped here.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "repro", "api.py")):
        print(
            "perfbench: the QASOM sources (src/repro) are not in the current "
            "directory; run this from the root of the repository",
            file=sys.stderr,
        )
        return 2
    # Worker processes of the process backend inherit this search path.
    sys.path.insert(0, source)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    from qbench import measure

    try:
        result = measure.run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    finally:
        stop_processes()
    for error in result.pop("errors"):
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
