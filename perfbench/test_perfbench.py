"""Tests of the benchmark itself: checker, runner, tracing, inputs and metric tables.

Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import qgatelab.cli  # noqa: E402
import qgatelab.qnum  # noqa: E402
import qgatelab.report  # noqa: E402
import qgatelab.schwinger  # noqa: E402
import qgatelab.suites  # noqa: E402


@pytest.fixture(scope="module")
def default_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("all") / "all.json"
    assert qgatelab.cli.main(["all", "--out", str(path)]) == 0
    return path.read_bytes()


# --- metric tables -----------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
    run.validate_metric_table(run.END_TO_END, run.MAX_END_TO_END)
    run.validate_metric_table(run.PER_LAYER, run.MAX_PER_LAYER)
    assert len(run.END_TO_END) <= 16 and len(run.PER_LAYER) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in declared["end_to_end"])


@pytest.mark.parametrize(
    "table, limit",
    [
        ((("bad name", "s"),), 16),
        ((("ok", "s"), ("ok", "s")), 16),
        ((("_leading", "s"),), 16),
        (tuple((f"m{i}", "s") for i in range(17)), 16),
        (tuple((f"m{i}", "s") for i in range(129)), 128),
    ],
)
def test_invalid_metric_tables_are_rejected(table, limit):
    with pytest.raises(ValueError):
        run.validate_metric_table(table, limit)


# --- checker -------------------------------------------------------------------


def _checker():
    return run.Checker(workloads.WORKLOADS["all-default"], run.load_reference()["all-default"]["signature"], full=True)


def _mutate(data: bytes, edit) -> bytes:
    report = json.loads(data)
    edit(report)
    return qgatelab.report.canonical_json(report).encode("utf-8") + b"\n"


def _flip_verdict(report):
    record = next(r for r in report["records"] if r["relation"] == "constraint-verdict")
    record["params"]["verdict"] = "refuted" if record["params"]["verdict"] == "confirmed" else "confirmed"


def _drop_record(report):
    del report["records"][3]


def _change_one_byte(data: bytes) -> bytes:
    index = data.index(b'"residual":') + len(b'"residual":') + 3
    digit = data[index : index + 1]
    assert digit.isdigit()
    return data[:index] + (b"1" if digit != b"1" else b"2") + data[index + 1 :]


def test_default_report_matches_the_pinned_signature(default_report):
    reference = run.load_reference()["all-default"]["signature"]
    sig = check.signature([0], [default_report], "json")
    assert check.problems(sig, reference, full=True) == []
    assert check.bytes_match(sig, reference)
    assert len(default_report) == 86529


@pytest.mark.parametrize("mutation", ["flip_verdict", "drop_record"])
def test_signature_catches_semantic_mutations(default_report, mutation):
    edit = {"flip_verdict": _flip_verdict, "drop_record": _drop_record}[mutation]
    mutated = _mutate(default_report, edit)
    reference = run.load_reference()["all-default"]["signature"]
    assert check.problems(check.signature([0], [mutated], "json"), reference, full=True)


@pytest.mark.parametrize("mutation", ["flip_verdict", "drop_record", "change_one_byte"])
def test_checker_counts_a_mutated_operation_as_failed(default_report, mutation):
    if mutation == "change_one_byte":
        mutated = _change_one_byte(default_report)
    else:
        mutated = _mutate(default_report, {"flip_verdict": _flip_verdict, "drop_record": _drop_record}[mutation])
    assert mutated != default_report
    checker = _checker()
    assert checker.check_reports({}, [0], [default_report]) == []
    op = {}
    assert checker.check_reports(op, [0], [mutated])
    if mutation == "change_one_byte":
        assert not op["bytes_match"]


def test_unreadable_report_is_a_failure():
    assert _checker().check_reports({}, [0], [b"{not json"])


def test_shape_is_checked_at_other_seeds(default_report):
    reference = run.load_reference()["all-default"]["signature"]
    sig = check.signature([0], [_mutate(default_report, _drop_record)], "json")
    assert check.problems(sig, reference, full=False)
    assert check.problems(check.signature([1], [default_report], "json"), reference, full=False)


# --- runner --------------------------------------------------------------------


class _FakeWorkload:
    """Runs the real child with commands that fail in a chosen way."""

    name = "fake"
    seeded = False
    reports = ("out.json",)
    report_format = "json"

    def __init__(self, how):
        self.how = how

    def commands(self, seed, work_dir, op_dir):
        out = os.path.join(op_dir, "out.json")
        if self.how == "hang":
            os.mkfifo(out)  # writing the report blocks: nobody reads the pipe
            return [["verify-algebra", "--q", "2", "--cutoff", "3", "--out", out]]
        return [["verify-algebra", "--cutoff", "x", "--out", out]]


@pytest.mark.parametrize("how", ["hang", "exit-2"])
def test_failing_children_are_counted_and_do_not_abort_the_run(tmp_path, how):
    runner = run.Runner(ROOT, str(tmp_path), time.monotonic() + 60.0)
    runner.op_timeout = 1.0
    reference = {"exit_codes": [0], "reports": [{}]}
    workload = _FakeWorkload(how)
    began = time.monotonic()
    ops = run.run_ops(runner, workload, 0, 0.0, False, run.Checker(workload, reference, full=True))
    assert time.monotonic() - began < 30.0
    assert len(ops) == run.MIN_OPS
    assert all(op["problems"] for op in ops)
    if how == "hang":
        assert all(op["timed_out"] for op in ops)
    else:
        assert all(op["code"] == 2 for op in ops)
    assert run.per_layer_metrics(ops)["failed_ratio"] == 1.0


def test_every_child_is_calibrated_and_times_scale_by_it(tmp_path):
    runner = run.Runner(ROOT, str(tmp_path), time.monotonic() + 60.0)
    probe = runner.child(lambda op_dir: [])
    assert probe["code"] == 0 and probe["calib_s"] > 0
    op = {"wall_s": 3.0, "setup_s": 0.3, "calib_s": 2 * calibrate.REFERENCE_S}
    assert run.scaled(op, "wall_s") == 1.5 and run.scaled(op, "setup_s") == 0.15
    metrics = run.end_to_end_metrics([dict(op, result={"maxrss_kb": 1024})], [])
    assert metrics["op_s.p50"] == 1.5 and metrics["setup_s"] == 0.15 and metrics["peak_rss_mb"] == 1.0


def test_missing_sources_exit_non_zero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "all-default", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


# --- tracing -------------------------------------------------------------------


def _traced(fn):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def test_wrapper_returns_the_result_object_and_closes_spans_on_errors():
    tracer = tracing.Tracer()
    sentinel = object()
    assert tracer.wrap("x.ok", lambda: sentinel)() is sentinel

    def boom():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.wrap("x.boom", boom)()
    table = tracer.spans("op")
    assert len(table["name"]) == 2 and all(end >= start > 0 for start, end in zip(table["start_ns"], table["end_ns"]))


def test_wrapped_functions_return_results_unchanged():
    calls = [
        (qgatelab.qnum, "q_bracket", (5, 1.3)),
        (qgatelab.qnum, "psi_bracket", (2, 1.7, 0.8, 1.1)),
        (qgatelab.schwinger, "closing_params", (1.3, (1, 0))),
        (qgatelab.schwinger, "deformed_qubit_state", (qgatelab.schwinger.DeformedQubitSpec((1, 0)), 1.3)),
    ]
    expected = [getattr(module, name)(*args) for module, name, args in calls]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, name).__wrapped__ for module, name, _ in calls)
        got = [getattr(module, name)(*args) for module, name, args in calls]
    finally:
        tracer.uninstall()
    assert got[:3] == expected[:3]
    assert (got[3].vector == expected[3].vector).all()
    assert not hasattr(qgatelab.qnum.q_bracket, "__wrapped__")


def test_install_reaches_every_binding_and_uninstall_restores_it():
    original = qgatelab.suites._SUITE_BUILDERS["gates"]
    psi_in_schwinger = qgatelab.schwinger.psi_bracket
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qgatelab.suites._SUITE_BUILDERS["gates"].__wrapped__ is original
        assert qgatelab.schwinger.psi_bracket.__wrapped__ is psi_in_schwinger
        assert qgatelab.cli.main.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert qgatelab.suites._SUITE_BUILDERS["gates"] is original
    assert qgatelab.schwinger.psi_bracket is psi_in_schwinger


_SMALL_COMMANDS = (
    ["verify-algebra", "--q", "0.7,1.6", "--cutoff", "5"],
    ["verify-gates", "--q", "1.3"],
    ["discover", "--q", "2", "--psi", "0.5,2"],
    ["limit-study"],
)


def _run_small(out_dir, tracer=None):
    outputs = []
    for index, argv in enumerate(_SMALL_COMMANDS):
        path = os.path.join(out_dir, f"r{index}.json")
        assert qgatelab.cli.main(argv + ["--out", path]) == 0
        with open(path, "rb") as handle:
            outputs.append(handle.read())
    return outputs


def test_tracing_keeps_report_bytes_and_call_counts_repeat(tmp_path):
    plain = _run_small(str(tmp_path))
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _run_small(str(tmp_path))
        finally:
            tracer.uninstall()
        assert traced == plain
        counts.append({name: entry[0] for name, entry in tracing.aggregate(tracer.spans("op")).items()})
    assert counts[0] == counts[1]
    assert {name.split(".")[0] for name, calls in counts[0].items() if calls} == set(tracing.LAYERS)


def test_spans_nest_inside_their_parents(tmp_path):
    tracer = _traced(lambda: _run_small(str(tmp_path)))
    table = tracer.spans("op-test")
    path = tmp_path / "spans.json"
    tracer.write(str(path), "op-test")
    assert json.loads(path.read_text()) == table
    for span, parent in enumerate(table["parent"]):
        assert parent < span
        if parent >= 0:
            assert table["start_ns"][parent] <= table["start_ns"][span] <= table["end_ns"][span] <= table["end_ns"][parent]
    for name, (calls, total, own) in tracing.aggregate(table).items():
        assert 0 <= own <= total


# --- inputs --------------------------------------------------------------------


def test_psi_grid_follows_the_seed():
    grid = workloads.psi_grid(7)
    assert grid == workloads.psi_grid(7) != workloads.psi_grid(8)
    assert len(set(grid)) == 5 and all(0.25 <= v <= 8.0 for v in grid)
    assert all(float(f"{v:.3g}") == v for v in grid)


def test_dense_q_values_follow_the_seed():
    values = workloads.dense_q_values(7)
    assert values == workloads.dense_q_values(7) != workloads.dense_q_values(8)
    assert len({f"{q:g}" for q in values}) == 200
    assert all(0.5 <= q <= 2.0 and abs(q - 1.0) >= 1e-3 for q in values)
