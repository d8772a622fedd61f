"""Record the reference values the `grid_short` and `calibrate_full` checks
compare against, by running one pass per seed on the current code.

    python3 perfbench/record_reference.py --pool 0 1 2 --held-out 1000

Run it only on code whose outputs are known to be right: the references
define what the benchmark accepts.  The pool seeds are the ones any
benchmark seed maps onto; held-out seeds run only when asked for by name.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import ROOT, call

RECORDED = ("grid_short", "calibrate_full")


def record(seed: int, name: str, cli) -> dict:
    work = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".perfbench" / "tmp"))
    try:
        workload = workloads.WORKLOADS[name](ROOT, work, seed,
                                             {name: {str(seed): None}, "pool": [seed]})
        workload.prepare()
        workload.out.mkdir(parents=True)
        errors = [call(cli, argv) for argv in workload.ops()]
        if any(errors):
            raise SystemExit(f"{name} seed {seed} failed: {errors}")
        return workload.extract()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pool", type=int, nargs="+", required=True)
    parser.add_argument("--held-out", type=int, nargs="*", default=[])
    parser.add_argument("--out", default=str(workloads.REFERENCE_FILE))
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perfbench" / "tmp").mkdir(parents=True, exist_ok=True)
    from logitbench import cli
    seeds = [*args.pool, *args.held_out]
    reference = {"pool": args.pool, "held_out": args.held_out}
    for name in RECORDED:
        reference[name] = {}
        for seed in seeds:
            reference[name][str(seed)] = record(seed, name, cli)
            print(f"recorded {name} seed {seed}", flush=True)
    Path(args.out).write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
