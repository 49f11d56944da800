"""One benchmark operation: a cold process that runs qgatelab commands in order.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds "commands" (a list of qgatelab argument lists), "result" (where
this process writes its timings and exit codes), "trace" (wrap the layer
modules and record spans) and, when tracing, "spans" and "op_id".  With an
empty command list the process only imports the package (a set-up probe).

The first thing this file does is import qgatelab.cli, so the monotonic clock
read right after it, compared with the parent's reading just before the
spawn, is the set-up time of a qgatelab process.
"""

import time

import qgatelab.cli  # set-up ends here

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _run(argv) -> int:
    try:
        return qgatelab.cli.main(argv)
    except SystemExit as exc:  # argparse errors, as the console script would exit
        return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    codes = []
    command_ns = []
    for argv in spec["commands"]:
        started = time.perf_counter_ns()
        codes.append(_run(argv))
        command_ns.append(time.perf_counter_ns() - started)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spec["spans"], spec["op_id"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(
            {
                "imported_ns": IMPORTED_NS,
                "exit_codes": codes,
                "command_ns": command_ns,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
            handle,
        )
    return next((code for code in codes if code != 0), 0)


if __name__ == "__main__":
    raise SystemExit(main())
