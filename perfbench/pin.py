"""Pin the reference signature of every workload at the default seed.

Usage, from the root of a source checkout:

    python3 perfbench/pin.py

Runs one untraced operation per workload and writes perfbench/reference.json.
Re-pin only when a change to the report is intended and explained.
"""

import json
import os
import shutil
import sys
import time

from run import HARD_LIMIT_S, HERE, OUT_DIR, Runner, read_reports
import check
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    root = os.getcwd()
    reference = {}
    for workload in WORKLOADS.values():
        out_dir = os.path.join(root, OUT_DIR, "pin", workload.name)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        workload.prepare(DEFAULT_SEED, out_dir)
        runner = Runner(root, out_dir, time.monotonic() + HARD_LIMIT_S)
        op = runner.child(lambda op_dir: workload.commands(DEFAULT_SEED, out_dir, op_dir))
        reports = read_reports(op, workload)
        if op["timed_out"] or op["result"] is None or reports is None:
            print(f"pin: {workload.name} did not produce its reports (exit code {op['code']})", file=sys.stderr)
            return 1
        sig = check.signature(op["result"]["exit_codes"], reports, workload.report_format)
        reference[workload.name] = {"seed": DEFAULT_SEED, "signature": sig}
        print(f"{workload.name}: exit codes {sig['exit_codes']}, "
              f"{[(r['records'], r['bytes'], r['sha256']) for r in sig['reports']]}")
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
