"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload live_hot --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` measures half the window untraced and
half traced, reports the per-layer metrics, and writes the traced
spans to ``perfbench/out/``.  Every run checks the program's outputs;
a failed check is listed on stderr, reported as ``"correct": false``
and exits with status 1.  The program is imported from ``src/`` of the
checkout, so nothing needs building or installing.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("live_hot", "live_churn", "sim_wan")
#: Failed checks listed on stderr; the rest are counted.
MAX_LISTED = 20


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, spans_path=None):
    """Run one workload in this process; returns a :class:`report.Result`."""
    if workload == "sim_wan":
        from perfbench.simwan import run_sim_wan

        return run_sim_wan(seed, seconds, trace, spans_path=spans_path)
    from perfbench.live import LIVE_CHURN, LIVE_HOT, run_live

    config = LIVE_HOT if workload == "live_hot" else LIVE_CHURN
    return run_live(config, seed, seconds, trace, spans_path)


def main(argv=None) -> int:
    args = parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    spans_path = None
    if args.trace:
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        spans_path = os.path.join(out, f"spans-{args.workload}.json.gz")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), spans_path)
    for failure in result.failures[:MAX_LISTED]:
        print(f"check failed: {failure}", file=sys.stderr)
    if len(result.failures) > MAX_LISTED:
        print(f"... and {len(result.failures) - MAX_LISTED} more failed checks", file=sys.stderr)
    print(result.line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
