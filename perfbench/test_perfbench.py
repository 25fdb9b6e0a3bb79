"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``.

The smoke runs shrink every workload to a tiny input and check the output
contract: every metric of ``BENCHMARK.json`` emitted with its unit, and no
failed operation.  The planted-fault tests corrupt one answer inside the
system and check that the benchmark counts it, so its checks cannot pass
vacuously.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro import DatalogService  # noqa: E402

import cold_read  # noqa: E402
import common  # noqa: E402
import durable_mix  # noqa: E402
import http_keepalive  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    payload = json.loads(lines[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True
    assert payload["failed"] == 0
    assert payload["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(payload["metrics"]) == {metric["name"] for metric in listed}
    for metric in listed:
        emitted = payload["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        assert payload["metrics"]["fail_ratio"]["value"] == 0
    fingerprint = json.loads(
        next(line for line in lines if line.startswith("# fingerprint "))[14:]
    )
    assert fingerprint["seed"] == 7
    assert {"python", "nproc", "platform", "wal_filesystem", "flush_policy"} <= set(
        fingerprint
    )


def test_planted_wrong_cold_read_answer_is_counted(monkeypatch):
    original = DatalogService.answers
    planted = []

    def answers(self, query):
        result = original(self, query)
        # The warm-up only asks about chain 0; corrupt the first timed read
        # of chain 1 by dropping one answer row.
        if not planted and "(n1_" in str(query) and result:
            planted.append(query)
            return frozenset(list(result)[1:])
        return result

    monkeypatch.setattr(DatalogService, "answers", answers)
    result = cold_read.run(seed=7, seconds=1.0, trace=False, smoke=True)
    assert planted
    assert result.tally.failed == 1
    assert result.metrics["fail_ratio"] > 0


def test_planted_wrong_durable_mix_answer_is_counted(monkeypatch):
    original = DatalogService.answers
    planted = []

    def answers(self, query):
        result = original(self, query)
        # Set-up reads happen at revision 0; corrupt the first read after a
        # write by adding a row that no chain has.
        if not planted and self.revision > 0:
            planted.append(query)
            row = next(iter(result)) if result else None
            if row is not None:
                return result | {(type(row[0])("nowhere"),)}
        return result

    monkeypatch.setattr(DatalogService, "answers", answers)
    result = durable_mix.run(seed=7, seconds=0.5, trace=False, smoke=True)
    assert planted
    assert result.tally.failed == 1


def test_wrong_http_answer_is_refused():
    expected = [["n1_2"], ["n1_3"]]
    body = json.dumps({"revision": 0, "answers": expected}).encode()
    assert http_keepalive.response_ok(200, body, expected)
    assert not http_keepalive.response_ok(500, body, expected)
    assert not http_keepalive.response_ok(200, b"{", expected)
    wrong = json.dumps({"revision": 0, "answers": expected[:1]}).encode()
    assert not http_keepalive.response_ok(200, wrong, expected)


def test_times_scale_to_reference_speed():
    reference = common.PROBE_REFERENCE_S
    assert common.at_reference_speed(3.0, [reference]) == pytest.approx(3.0)
    speed = common.HostSpeed()
    # nine probes at half speed, then nine at double speed
    speed.times = [2 * reference] * 9 + [reference / 2] * 9
    assert speed.scaled([(1.0, 4), (1.0, 13)]) == pytest.approx([0.5, 2.0])
    assert common.probe() > 0


def test_time_queued_for_a_processor_is_not_counted(monkeypatch):
    assert common.run_delay() >= 0.0
    # 0.25 s of the 0.3 s between the marks spent waiting for a processor
    delays = iter([1.0, 1.25])
    monkeypatch.setattr(common, "run_delay", lambda: next(delays))
    mark = common.start()
    time.sleep(0.3)
    assert common.since(mark) == pytest.approx(0.05, abs=0.04)
