"""Crash-fuzz battery: SIGKILL a durable service, recover, reconcile.

The centrepiece of the durability layer's correctness argument.  A
subprocess (``tests/crash_worker.py``) drives a durable
:class:`~repro.service.DatalogService` through a seeded batch sequence,
acknowledging each batch to a flushed side file only after its future
resolves.  ``REPRO_CRASH_POINT`` arms one of five injection points inside
the durability layer, so the process SIGKILLs itself at a chosen hit:

========================  =================================================
``wal.torn``              half of a framed record written, then killed —
                          the manufactured torn tail (a bare SIGKILL loses
                          no OS-buffered bytes)
``wal.pre_sync``          record pushed to the OS but not fsynced
``wal.post_sync``         record durable, batch **not yet applied or
                          acknowledged** — the fsync/publish crash window
``checkpoint.mid``        checkpoint tmp file written, not yet renamed
``checkpoint.post_rename``checkpoint renamed, write-ahead log **not yet
                          compacted** — the double-application window
========================  =================================================

Reconciliation against the from-scratch oracle (a plain
:class:`~repro.query.session.QuerySession` replaying the same seeded
batches) asserts *exactly-once* application: with ``k`` acknowledged
batches, the recovered store equals the oracle after ``m`` batches for some
``m ∈ {k, k+1}`` (the in-flight batch may or may not have reached the log —
both are correct; an acknowledged batch lost, or any batch applied twice,
matches neither) — facts, revision, acknowledged counts, and query answers
all included.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.query.session import QuerySession
from repro.service import DatalogService

sys.path.insert(0, str(Path(__file__).resolve().parent))
import crash_worker  # noqa: E402  (shared batch generator = the oracle's input)

BATCHES = 12
CHECKPOINT_EVERY = 3

#: (crash point, hit index chosen from the seed) — the hit ranges are picked
#: so the crash always fires: 12 logged batches give >= 12 wal.* hits, and
#: the initial + every-3-batches + close checkpoints give >= 5 checkpoint.*
#: hits.
KILL_POINTS = {
    "wal.torn": (2, 10),
    "wal.pre_sync": (2, 10),
    "wal.post_sync": (2, 10),
    "checkpoint.mid": (1, 4),
    "checkpoint.post_rename": (1, 4),
}

SEEDS = range(10)


def _run_worker(tmp_path: Path, seed: int, crash_spec: str | None):
    store = tmp_path / "store"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    )
    if crash_spec is not None:
        env["REPRO_CRASH_POINT"] = crash_spec
    else:
        env.pop("REPRO_CRASH_POINT", None)
    process = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve().parent / "crash_worker.py"),
            str(store),
            str(seed),
            str(BATCHES),
            str(CHECKPOINT_EVERY),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return store, process


def _acknowledged(tmp_path: Path):
    """The complete ``index:count`` lines of the ack file, plus done-ness."""
    acks_file = tmp_path / "acks.txt"
    counts = []
    done = False
    if acks_file.exists():
        # A torn final line (crash mid-write) is not an acknowledgement.
        for line in acks_file.read_bytes().decode("utf-8").split("\n")[:-1]:
            if line == "done":
                done = True
                continue
            index, _, count = line.partition(":")
            assert int(index) == len(counts)
            counts.append(int(count))
    return counts, done


def _oracle_after(seed: int, batches: int):
    """A from-scratch session that applied exactly *batches* batches."""
    session = QuerySession((), crash_worker.rules())
    counts = []
    for kind, atoms in crash_worker.make_batches(seed, BATCHES)[:batches]:
        counts.append(session.apply_batch([(kind, atoms)])[0])
    return session, counts


def _reconcile(store: Path, tmp_path: Path, seed: int):
    """Assert the recovered store is the oracle prefix state, exactly once."""
    acked, done = _acknowledged(tmp_path)
    k = len(acked)
    candidates = [k] if done else [k, k + 1]
    with DatalogService.open(store, crash_worker.rules()) as service:
        recovered_facts = service.facts
        recovered_revision = service.revision
        recovered_answers = service.answers(crash_worker.probe_query())
    for m in candidates:
        oracle, oracle_counts = _oracle_after(seed, m)
        if oracle.facts != recovered_facts:
            continue
        # Facts match for this prefix length: everything else must too.
        assert oracle_counts[:k] == acked
        assert oracle.revision == recovered_revision
        assert oracle.answers(crash_worker.probe_query()) == recovered_answers
        return m
    raise AssertionError(
        f"recovered store matches no acknowledged prefix {candidates} "
        f"(seed {seed}, {k} acked)"
    )


@pytest.mark.parametrize("point", sorted(KILL_POINTS))
def test_crash_battery(point, tmp_path):
    """>= 10 seeded SIGKILL runs per injection point, all exactly-once."""
    low, high = KILL_POINTS[point]

    def one_run(seed):
        run_dir = tmp_path / f"run{seed}"
        run_dir.mkdir()
        hit = low + seed % (high - low + 1)
        store, process = _run_worker(run_dir, seed, f"{point}:{hit}")
        assert process.returncode == -9, (
            f"worker survived {point}:{hit} (rc={process.returncode}):\n"
            f"{process.stdout}\n{process.stderr}"
        )
        return _reconcile(store, run_dir, seed)

    with ThreadPoolExecutor(max_workers=5) as pool:
        applied = list(pool.map(one_run, SEEDS))
    # The battery must actually exercise recovery, not die before logging
    # anything: across the seeds, at least one run recovered applied batches.
    assert max(applied) > 0


def test_no_crash_run_completes_and_reopens(tmp_path):
    """Control run: no crash point, clean close, the reopen reconciles."""
    store, process = _run_worker(tmp_path, seed=3, crash_spec=None)
    assert process.returncode == 0, process.stderr
    counts, done = _acknowledged(tmp_path)
    assert done and len(counts) == BATCHES
    assert _reconcile(store, tmp_path, seed=3) == BATCHES
