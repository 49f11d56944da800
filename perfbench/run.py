"""qgatelab benchmark: cold qgatelab processes, checked reports, timed per module.

Usage (from the root of a source checkout; nothing needs to be installed):

    python3 perfbench/run.py --workload all-default --seed 0 --seconds 30 --trace 0

Load is a closed loop with one client: one child process at a time, each a
cold interpreter that imports qgatelab from src/ and runs one operation (see
workloads.py).  Set-up probes (processes that only import qgatelab.cli) run
first.  A calibration process (calibrate.py) runs right before every child,
and the child's times are reported in seconds at the reference host speed:
time * calibrate.REFERENCE_S / calibration wall time.  This cancels the drift
of a shared host's speed; the raw wall times stay in run.json and in the
per-layer metrics op_wall_s.p50 and calibration_s.p50.  Every report is
checked against the signature pinned in reference.json (the whole signature
at the pinned seed, its shape at other seeds) and against the bytes of the
run's other operations.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 untraced and traced operations alternate, the traced ones wrap the
public functions of every module (tracing.py), and the last line holds the
per-layer metrics.  The line before it records the environment.  Thread
variables such as OPENBLAS_NUM_THREADS are recorded, never set.  Reports,
per-operation results and spans are left in .perfbench_out/<workload>/.
"""

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import check  # noqa: E402
from tracing import LAYERS, aggregate  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_PROBES = 7
MIN_OPS = 3
MIN_TRACED_OPS = 2
HARD_LIMIT_S = 160.0
OP_TIMEOUT_S = 60.0

END_TO_END = (
    ("op_s.p50", "s"),
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

FUNCTION_METRICS = (
    "constraints.discover_constraints.calls",
    "constraints.discover_constraints.self_s",
    "constraints.discover_constraints.total_s",
    "constraints.identity_residual.calls",
    "constraints.identity_residual.total_s",
    "schwinger.deformed_qubit_state.calls",
    "schwinger.deformed_qubit_state.total_s",
    "schwinger.closing_params.calls",
    "schwinger.closing_params.total_s",
    "schwinger.qubit_amplitude.calls",
    "gates.deformed_gate_matrix.calls",
    "gates.deformed_gate_matrix.total_s",
    "gates.gate_matrix.calls",
    "gates.gate_matrix.total_s",
    "gates.gate_action_traced.calls",
    "fock.basis_state.calls",
    "fock.lift.calls",
    "fock.lift.total_s",
    "qnum.psi_bracket.calls",
    "qnum.q_bracket.calls",
    "qdeform.make_deformed_ops.calls",
    "qdeform.algebra_residuals.calls",
    "qdeform.algebra_residuals.total_s",
    "suites.algebra_suite.total_s",
    "suites.gates_suite.total_s",
    "suites.constraints_suite.total_s",
    "suites.limits_suite.total_s",
    "report.serialize_report.total_s",
)

PER_LAYER = (
    tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + tuple((name, "count" if name.endswith(".calls") else "s") for name in FUNCTION_METRICS)
    + (
        ("constraints.rows", "count"),
        ("constraints.admissible_ratio", "ratio"),
        ("constraints.cross_checked", "count"),
        ("constraints.rows_per_busy_s", "1/s"),
        ("report.records", "count"),
        ("report.bytes", "B"),
        ("report.bytes_per_busy_s", "B/s"),
        ("report.bytes_match_seed", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("op_wall_s.p50", "s"),
        ("calibration_s.p50", "s"),
        ("rows_per_s", "1/s"),
        ("failed_ratio", "ratio"),
    )
)

# cpu_s is the child's CPU time; about twice its wall time while OpenBLAS's
# worker thread spins, as it does at the default BLAS threads.
OPERATION_FIELDS = ("op_id", "trace", "calib_s", "wall_s", "cpu_s", "setup_s", "code", "problems", "bytes_match")

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
THREAD_VARIABLE = re.compile(r"THREAD|^OMP_|^OPENBLAS|^GOTO|^MKL_|^BLIS_|^VECLIB|^NUMEXPR|^KMP_")


def validate_metric_table(table, limit: int) -> None:
    """Names unique and well formed, and no more of them than the limit."""
    names = [name for name, _ in table]
    bad = [name for name in names if not NAME_PATTERN.match(name)]
    if bad or len(set(names)) != len(names) or len(names) > limit:
        raise ValueError(f"invalid metric table: bad names {bad}, {len(names)} names, limit {limit}")


class Runner:
    """Spawns one child at a time from the checkout root and times it."""

    def __init__(self, root: str, out_dir: str, deadline: float):
        self.root = root
        self.out_dir = out_dir
        self.deadline = deadline
        self.op_timeout = OP_TIMEOUT_S
        self.env = dict(os.environ)
        self.env.pop("QGATELAB_OUT_DIR", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
        self.count = 0

    def spawn(self, argv, stderr_path: str) -> dict:
        """Run argv to completion, killing it after op_timeout or at the run's deadline.

        Never raises for the child's faults: a hang shows as timed_out.
        """
        timeout = max(1.0, min(self.op_timeout, self.deadline - time.monotonic()))
        killed = threading.Event()
        with open(stderr_path, "wb") as stderr:
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            started = time.monotonic_ns()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr)

            def kill():
                killed.set()
                proc.kill()

            watchdog = threading.Timer(timeout, kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
                watchdog.join()
            ended = time.monotonic_ns()
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return {
            "started_ns": started,
            "wall_s": (ended - started) / 1e9,
            "cpu_s": cpu_s,
            "code": code,
            "timed_out": killed.is_set(),
        }

    def calibrate(self) -> float:
        """Wall time of one calibration process; raises if it fails."""
        outcome = self.spawn([sys.executable, os.path.join(HERE, "calibrate.py")], os.devnull)
        if outcome["code"] != 0 or outcome["timed_out"]:
            raise RuntimeError(f"calibration process failed: {outcome}")
        return outcome["wall_s"]

    def child(self, commands, trace: bool = False) -> dict:
        """One cold qgatelab process running commands(op_dir), each writing its report into op_dir.

        A calibration process runs right before it (see calibrate.py).
        """
        calib_s = self.calibrate()
        self.count += 1
        op_id = f"op{self.count:03d}"
        op_dir = os.path.join(self.out_dir, op_id)
        os.makedirs(op_dir)
        spec = {
            "commands": commands(op_dir),
            "result": os.path.join(op_dir, "result.json"),
            "trace": trace,
            "spans": os.path.join(op_dir, "spans.json"),
            "op_id": op_id,
        }
        argv = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
        outcome = self.spawn(argv, os.path.join(op_dir, "stderr.txt"))
        outcome.update(op_id=op_id, op_dir=op_dir, trace=trace, calib_s=calib_s)
        try:
            with open(spec["result"], encoding="utf-8") as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            result = None
        outcome["result"] = result
        if result is not None:
            outcome["setup_s"] = (result["imported_ns"] - outcome["started_ns"]) / 1e9
        return outcome


def environment(root: str) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_variables": {k: v for k, v in sorted(os.environ.items()) if THREAD_VARIABLE.search(k)},
        "git_commit": git_commit(root),
        "platform": platform.platform(),
    }


def git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def read_reports(op: dict, workload) -> list | None:
    try:
        return [_read(os.path.join(op["op_dir"], name)) for name in workload.reports]
    except OSError:
        return None


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class Checker:
    """Decides whether each operation of one run failed, and why."""

    def __init__(self, workload, reference: dict, full: bool):
        self.workload = workload
        self.reference = reference
        self.full = full
        self.first_bytes = None
        self.first_calls = None

    def check(self, op: dict) -> list:
        """Problems of one operation; fills op['signature'] and op['bytes_match'] when reports parse."""
        if op.get("timed_out"):
            return ["timed out"]
        result = op["result"]
        if result is None:
            return [f"no result file (exit code {op['code']})"]
        expected_code = next((c for c in self.reference["exit_codes"] if c != 0), 0)
        found = []
        if op["code"] != expected_code:
            found.append(f"process exit code {op['code']} != expected {expected_code}")
        reports = read_reports(op, self.workload)
        if reports is None:
            return found + ["a report is missing"]
        return found + self.check_reports(op, result["exit_codes"], reports)

    def check_reports(self, op: dict, exit_codes, reports) -> list:
        try:
            sig = check.signature(exit_codes, reports, self.workload.report_format)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable report: {exc!r}"]
        op["signature"] = sig
        op["bytes_match"] = self.full and check.bytes_match(sig, self.reference)
        found = check.problems(sig, self.reference, self.full)
        if self.first_bytes is None:
            self.first_bytes = reports
        elif reports != self.first_bytes:
            found.append("report bytes differ from the run's first operation")
        return found

    def check_calls(self, op: dict, table: dict) -> list:
        calls = {name: entry[0] for name, entry in table.items()}
        if self.first_calls is None:
            self.first_calls = calls
            return []
        if calls != self.first_calls:
            return ["call counts differ from the run's first traced operation"]
        return []


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_ops(runner: Runner, workload, seed: int, seconds: float, trace: bool, checker: Checker) -> list:
    """Closed loop: one operation at a time for `seconds` (alternating traced ones when tracing)."""
    ops = []
    began = time.monotonic()
    work_dir = runner.out_dir

    def commands(op_dir):
        return workload.commands(seed, work_dir, op_dir)

    while time.monotonic() < runner.deadline:
        traced = sum(1 for op in ops if op["trace"])
        enough = len(ops) >= MIN_OPS and (not trace or traced >= MIN_TRACED_OPS)
        if enough and time.monotonic() - began >= seconds:
            break
        op = runner.child(commands, trace=trace and len(ops) % 2 == 1)
        op["problems"] = checker.check(op)
        if op["trace"] and op["result"] is not None:
            op["table"] = load_spans(op)
            op["problems"] += checker.check_calls(op, op["table"])
        ops.append(op)
    return ops


def load_spans(op: dict) -> dict:
    try:
        with open(os.path.join(op["op_dir"], "spans.json"), encoding="utf-8") as handle:
            return aggregate(json.load(handle))
    except (OSError, ValueError):
        return {}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def scaled(op: dict, key: str) -> float:
    """op[key] (seconds) at the reference host speed, by the calibration run just before op."""
    return op[key] * calibrate.REFERENCE_S / op["calib_s"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def report_totals(op: dict) -> dict:
    """Records, bytes and sweep totals of an operation's reports (zeros without a signature)."""
    reports = op.get("signature", {}).get("reports", [])
    strata = [s for r in reports for verdict in r["constraints"].values() for s in verdict["strata"]]
    return {
        "records": sum(r["records"] for r in reports),
        "bytes": sum(r["bytes"] for r in reports),
        "cross_checked": sum(r["cross_checked"] for r in reports),
        "rows": sum(s[2] for s in strata),
        "admissible": sum(s[3] for s in strata),
    }


def end_to_end_metrics(ops: list, probes: list) -> dict:
    done = [op for op in ops if op["result"] is not None]
    setup = [scaled(p, "setup_s") for p in probes + done if "setup_s" in p]
    return {
        "op_s.p50": _median(scaled(op, "wall_s") for op in ops),
        "setup_s": _median(setup),
        "records_per_s": _median(_ratio(report_totals(op)["records"], scaled(op, "wall_s")) for op in done),
        "peak_rss_mb": _median(op["result"]["maxrss_kb"] / 1024.0 for op in done),
    }


def per_layer_metrics(ops: list) -> dict:
    plain = [op for op in ops if not op["trace"]]
    traced = [op for op in ops if op["trace"] and op.get("table")]
    tables = [op["table"] for op in traced]

    def fn(name, index):
        return _median(t.get(name, (0, 0, 0))[index] for t in tables)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _median(
            sum(entry[2] for name, entry in t.items() if name.startswith(layer + ".")) / 1e9 for t in tables
        )
    fields = {"calls": 0, "total_s": 1, "self_s": 2}
    for metric in FUNCTION_METRICS:
        name, field = metric.rsplit(".", 1)
        value = fn(name, fields[field])
        # call counts repeat exactly across traced operations (Checker.check_calls)
        metrics[metric] = int(value) if field == "calls" else value / 1e9
    totals = report_totals(next((op for op in ops if op.get("signature")), {}))
    discover_s = fn("constraints.discover_constraints", 1) / 1e9
    serialize_s = fn("report.serialize_report", 1) / 1e9
    plain_wall = _median(scaled(op, "wall_s") for op in plain)
    metrics.update(
        {
            "constraints.rows": totals["rows"],
            "constraints.admissible_ratio": _ratio(totals["admissible"], totals["rows"]),
            "constraints.cross_checked": totals["cross_checked"],
            "constraints.rows_per_busy_s": _ratio(totals["rows"], discover_s),
            "report.records": totals["records"],
            "report.bytes": totals["bytes"],
            "report.bytes_per_busy_s": _ratio(totals["bytes"], serialize_s),
            "report.bytes_match_seed": sum(1 for op in ops if op.get("bytes_match")),
            "trace.overhead_ratio": _ratio(_median(scaled(op, "wall_s") for op in traced), plain_wall) - 1.0,
            "op_wall_s.p50": _median(op["wall_s"] for op in plain),
            "calibration_s.p50": _median(op["calib_s"] for op in ops),
            "rows_per_s": _ratio(totals["rows"], plain_wall),
            "failed_ratio": _ratio(sum(1 for op in ops if op["problems"]), len(ops)),
        }
    )
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark cold qgatelab processes.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qgatelab", "cli.py")):
        print("perfbench: run from the root of a qgatelab source checkout (src/qgatelab missing)", file=sys.stderr)
        return 2
    declared = benchmark_declaration(root)
    table = PER_LAYER if args.trace else END_TO_END
    validate_metric_table(END_TO_END, MAX_END_TO_END)
    validate_metric_table(PER_LAYER, MAX_PER_LAYER)
    if declared is not None and declared[args.trace] != [name for name, _ in table]:
        print("perfbench: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = load_reference()[workload.name]
    full = not workload.seeded or args.seed == reference["seed"]
    out_dir = os.path.join(root, OUT_DIR, workload.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload.prepare(args.seed, out_dir)
    env = environment(root)
    runner = Runner(root, out_dir, time.monotonic() + HARD_LIMIT_S)

    def import_only(op_dir):
        return []

    runner.child(import_only)  # warm-up: byte-compiles src/ on a fresh checkout
    probes = [runner.child(import_only) for _ in range(SETUP_PROBES)]
    checker = Checker(workload, reference["signature"], full)
    ops = run_ops(runner, workload, args.seed, args.seconds, bool(args.trace), checker)

    failed = [op for op in ops if op["problems"]]
    metrics = per_layer_metrics(ops) if args.trace else end_to_end_metrics(ops, probes)
    result = {
        "correct": not failed and all(p["result"] is not None for p in probes),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "full_signature_checked": full,
        "environment": env,
        "operations": [
            {k: op.get(k) for k in OPERATION_FIELDS}
            for op in ops
        ],
        "result": result,
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    for op in failed:
        print(f"perfbench: {op['op_id']} failed: {'; '.join(op['problems'])}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def benchmark_declaration(root: str):
    """(end-to-end names, per-layer names) from BENCHMARK.json, or None without one."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in data["end_to_end"]], [m["name"] for m in data["per_layer"]]


if __name__ == "__main__":
    raise SystemExit(main())
