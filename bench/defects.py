"""Probe of the known query defects that the timed workloads leave out.

    python3 bench/defects.py [--seed 1] [--per-kind 200]

A benchmark run must pass every operation, so ``queries`` asks only what the
program answers correctly: certificates and arc membership at N <= 512, with
sigma below ``arc_sigma_max(N)``.  This script sends the left-out inputs
(``workloads.defect_ops``) through the same CLI and the same checks, and
prints per kind how many fail, with one example.  It measures no time.  Once
the defects are fixed every count reads 0, and the left-out inputs can join
the query stream.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from worker import ROOT, Client, verdict  # noqa: E402
from workloads import defect_ops  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--per-kind", type=int, default=200)
    args = ap.parse_args(argv)
    client = Client(ROOT / "bench" / "out" / f"work-defects-{args.seed}")
    report = {}
    try:
        for kind, ops in defect_ops(args.seed, args.per_kind).items():
            problems = []
            for i, op in enumerate(ops):
                _, res = client.invoke(i, op)
                problems += verdict(op, res, [])[:1]
            report[kind] = {"attempted": len(ops), "failed": len(problems),
                            "example": problems[0] if problems else None}
    finally:
        shutil.rmtree(client.work, ignore_errors=True)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
