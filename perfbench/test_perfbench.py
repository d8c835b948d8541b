"""Tests of the benchmark itself, on the cheapest cells of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans      # noqa: E402
import worker     # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def units(metrics: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    out = last_json(done.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = units(SPEC["per_layer" if trace == "1" else "end_to_end"])
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert "failed_ratio 0.0 1" in done.stdout
    if trace == "1" and workload == "relation_sweep":
        assert all(v["value"] == 0 for k, v in out["metrics"].items()
                   if k.startswith("structure.") and k.endswith(".calls"))


def test_wrong_expected_table_fails_items(monkeypatch):
    monkeypatch.setattr(workloads, "cg_expected", lambda *pair: {"R1_l[l=0]": 1})
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert worker.main(["--workload", "cg_tables", "--seed", "1",
                            "--seconds", "0.1", "--tiny"]) == 0
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert result["failed"] > 0
    assert result["metrics"]["failed_ratio"][0] > 0


def test_unpredicted_exception_fails_the_item():
    wl = workloads.oracle_census(tiny=True)
    _, rec = worker.run_one(wl, {"family": "no_such_family", "q": 1.3, "cell": "x"})
    assert rec == {"cell": "x", "error": "ValueError", "ok": False}


def test_inputs_come_from_the_seed_alone():
    for make in workloads.WORKLOADS.values():
        wl = make()
        assert wl.round_items(5, 1) == wl.round_items(5, 1)
        assert wl.round_items(5, 1) != wl.round_items(6, 1)
        assert sorted(i["cell"] for i in wl.round_items(5, 0)) == \
            sorted(cid for cid, _ in wl.cells)


def test_tail_percentile_does_not_depend_on_rounds():
    round_times = [float(t) for t in range(30)]
    three, info3 = worker.tail(round_times * 3, 3, tail_rounds=3)
    six, info6 = worker.tail(round_times * 6, 6, tail_rounds=3)
    assert three == six == 26.0
    assert info3["beyond"] == 10 and info6["beyond"] == 20
    assert info3["percentile"] == pytest.approx(info6["percentile"])


def test_cg_pool_matches_its_description():
    pairs = workloads.cg_pairs()
    assert len(pairs) == 81
    cells = workloads.cg_tables().cells
    assert len(cells) == 21 and len(dict(cells)) == 12


def test_spans_cover_every_binding_and_restore():
    from qso3 import registry, structure, tensor

    orig = structure.decompose
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        assert tensor.decompose is structure.decompose is not orig
        assert registry.REGISTRY["T_l"].build.__wrapped__ is not None
    finally:
        restore()
    assert tensor.decompose is structure.decompose is orig
    assert not hasattr(registry.REGISTRY["T_l"].build, "__wrapped__")


def test_self_time_excludes_children():
    # item 0: [0, 10] with a child [1, 4] that has a grandchild [2, 3]
    recorded = [(1, 0, 0, "structure.decompose", 1.0, 4.0),
                (2, 1, 0, "structure.commutant", 2.0, 3.0),
                (0, None, 0, spans.ITEM, 0.0, 10.0)]
    counts = [(0, "structure.commutant.unknowns", 64)]
    out = spans.summarize(recorded, counts, {0})
    assert out["structure.decompose.self_s"][0] == pytest.approx(2.0)
    assert out["structure.decompose.busy_s"][0] == pytest.approx(3.0)
    assert out["structure.commutant.share"][0] == pytest.approx(0.1)
    assert out["structure.commutant.unknowns"][0] == 64
    assert out["trace.unaccounted_share"][0] == pytest.approx(0.7)


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "cg_tables", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
