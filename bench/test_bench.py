"""Tests for the benchmark itself (run with ``python -m pytest bench``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, cli_args, generate_inputs, write_inputs  # noqa: E402


def _reference(name: str) -> str:
    return check.reference_path(WORKLOADS[name]).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_accepts_reference(name):
    assert check.check_sweep_csv(_reference(name), WORKLOADS[name]) == []


def test_checker_rejects_one_changed_error_count():
    lines = _reference("dense-files").splitlines()
    fields = lines[5].split(",")
    fields[12] = str(int(fields[12]) + 1)
    lines[5] = ",".join(fields)
    problems = check.check_sweep_csv("\n".join(lines) + "\n", WORKLOADS["dense-files"])
    assert any("errors/bits" in p for p in problems)


def test_checker_rejects_wrong_header():
    text = _reference("dense-files").replace("sinr_db", "sinr", 1)
    assert check.check_sweep_csv(text, WORKLOADS["dense-files"]) != []


def test_checker_rejects_changed_watts_and_bits():
    lines = _reference("dense-files").splitlines()
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) * 1.001)  # signal_w no longer matches sinr_db
    fields[11] = str(int(fields[11]) + 1)
    lines[1] = ",".join(fields)
    problems = check.check_sweep_csv("\n".join(lines), WORKLOADS["dense-files"])
    assert any("sinr_db" in p for p in problems)
    assert any("n_bits * trials" in p for p in problems)


def test_check_output_compares_bytes_at_reference_seed(tmp_path):
    workload = WORKLOADS["long-stream"]
    path = tmp_path / workload.csv_name
    path.write_bytes(check.reference_path(workload).read_bytes())
    assert check.check_output(path, workload, check.REFERENCE_SEED) == []
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert any("differs" in p for p in check.check_output(path, workload, check.REFERENCE_SEED))


def test_self_times_of_nested_spans():
    s = [
        spans.Span("a", -1, 0, 100),
        spans.Span("b", 0, 10, 40),
        spans.Span("c", 1, 15, 25),
        spans.Span("b", 0, 50, 90),
        spans.Span(spans.BOOKKEEPING, 0, 90, 95),
    ]
    got = spans.self_times(s)
    assert got["a"] == pytest.approx((100 - 30 - 40 - 5) / 1e9)
    assert got["b"] == pytest.approx((30 - 10 + 40) / 1e9)
    assert got["c"] == pytest.approx(10 / 1e9)
    assert spans.call_counts(s) == {"a": 1, "b": 2, "c": 1, spans.BOOKKEEPING: 1}


def test_recorder_links_parents():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(sp.name, sp.parent) for sp in recorder.spans] == [("outer", -1), ("inner", 0)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    assert generate_inputs(workload, 7) == generate_inputs(workload, 7)
    assert generate_inputs(workload, 7) != generate_inputs(workload, 8)


def test_topmost_import_time():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy.signal._a",
            "import time:        50 |        250 |       scipy.signal._c",
            "import time:        10 |        260 |     scipy.signal._b",
            "import time:        20 |        380 |   pkg.mod",
            "import time:         5 |        385 | pkg",
        ]
    )
    assert run.topmost_import_s(log, "scipy.signal") == pytest.approx(360e-6)
    assert run.topmost_import_s(log, "pkg") == pytest.approx(385e-6)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(240) == 95
    assert run.tail_percentile(192) == 90
    assert run.tail_percentile(30) == 50


def test_traced_run_matches_untraced_and_restores(tmp_path):
    cli = run._import_cli()
    workload = WORKLOADS["long-stream"]
    config = write_inputs(workload, 3, tmp_path / "inputs")
    modules = [m for n, m in sys.modules.items() if n == "trlinksim" or n.startswith("trlinksim.")]
    before = [dict(vars(m)) for m in modules]

    code, _ = run._call(cli, cli_args(workload, config, tmp_path / "plain") + ["--trials", "1"])
    assert code == 0
    code, _, recorder = run.traced_call(cli, cli_args(workload, config, tmp_path / "traced") + ["--trials", "1"])
    assert code == 0

    plain = (tmp_path / "plain" / workload.csv_name).read_bytes()
    assert (tmp_path / "traced" / workload.csv_name).read_bytes() == plain
    calls = spans.call_counts(recorder.spans)
    assert all(calls.get(name) for name in workload.predicted_spans)
    for module, attrs in zip(modules, before):
        for attr, value in attrs.items():
            assert vars(module)[attr] is value, f"{module.__name__}.{attr} not restored"


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _fake_child(csv_text: str, csv_path: Path):
    def fake(args, work):
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(csv_text, encoding="utf-8")
        return {"exit_code": 0, "wall_s": 2.0, "peak_rss_mb": 100.0, "setup_s": 1.0, "sim_s": 1.0}

    return fake


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    workload = WORKLOADS["long-stream"]
    csv_path = tmp_path / "out" / workload.csv_name
    good = _reference(workload.name)
    monkeypatch.setattr(run, "run_child", _fake_child(good, csv_path))
    result = run.end_to_end(workload, check.REFERENCE_SEED, 0.0, tmp_path)
    assert result["failed"] == 0 and result["attempted"] == run.MIN_CHILDREN
    assert result["metrics"]["bits_per_s"] == 2 * 200_000

    bad = good.replace(",35135\n", ",35134\n")
    assert bad != good
    monkeypatch.setattr(run, "run_child", _fake_child(bad, csv_path))
    result = run.end_to_end(workload, check.REFERENCE_SEED, 0.0, tmp_path)
    assert result["failed"] == result["attempted"] == run.MIN_CHILDREN
    assert result["metrics"] == {}
