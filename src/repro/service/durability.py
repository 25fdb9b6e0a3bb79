"""Durable serving: write-ahead fact log, checkpoints, recovery.

:class:`repro.service.DatalogService` keeps everything in memory; this module
gives it crash recovery with a classic two-file arrangement:

* a **write-ahead fact log** (:class:`FactLog`) — an append-only file of
  length-prefixed, CRC-32-checksummed JSON records, one per coalesced
  ``apply_batch`` (batch 0: the initial database), fsynced *before* the
  batch is applied or acknowledged.
  Torn tails (a crash mid-append) are detected by the checksum on reopen and
  truncated — the log always recovers to its longest valid prefix, never
  applies a half-written record;
* **checkpoints** (:class:`CheckpointStore`) — periodic snapshots of the base
  facts, the high-water batch id and the revision, written to a temporary
  file, fsynced, and atomically renamed, so a crash mid-checkpoint leaves the
  previous checkpoint untouched.  After a durable checkpoint the log is
  compacted (reset to empty).  Nothing derived is stored: for stratified
  Datalog¬ the answers are the perfect model, a function of the facts and
  the rules alone, and a recovered service re-derives what it is asked;
* a **recovery path** (:meth:`DurabilityManager.recover`) — load the latest
  valid checkpoint (falling back to the previous one if the latest fails
  validation, or to the log's batch-0 record when none validates, but only
  when the log still holds every batch after it; otherwise the open fails
  with :class:`~repro.errors.DurabilityError`), then hand back the log
  tail to replay.  Batch ids recorded in every log
  record make replay *idempotent*: records at or below the checkpoint's
  high-water batch id are skipped, so a crash landing between the
  checkpoint rename and the log compaction — or between an fsync and the
  epoch publish — never applies a batch twice.

Every payload is JSON with a structural term encoding (``["c", name]`` /
``["n", label]`` / ``["v", name]`` / ``["f", fn, [args]]``) rather than a
rendered string: renderings conflate constants, nulls, and variables whose
names collide, and these records must round-trip *any* fact the engine can
hold.  The layer stores base facts only and imports nothing from the query
or engine layers.

Crash-fuzz hooks: when the environment variable ``REPRO_CRASH_POINT`` is set
to ``"<point>:<k>"``, the process SIGKILLs itself at the *k*-th hit of the
named injection point (``wal.torn``, ``wal.pre_sync``, ``wal.post_sync``,
``checkpoint.mid``, ``checkpoint.post_rename``).  ``wal.torn`` additionally
writes only half of the framed record first — a SIGKILL alone loses no
OS-buffered bytes, so torn tails must be manufactured deterministically.
The hooks cost one environment probe per call site and nothing else; see
``tests/test_crash_recovery.py`` for the battery driving them.

See ``docs/durability.md`` for the log format, the checkpoint cadence, and
the crash-window walkthrough.
"""

from __future__ import annotations

import io
import json
import os
import signal
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.atoms import Atom, Predicate
from ..core.terms import Constant, FunctionTerm, Null, Term, Variable
from ..errors import DurabilityError
from ..obs.metrics import MetricsRegistry, global_registry
from ..obs.trace import get_tracer
from .framing import FRAME_HEADER as _HEADER, frame as _frame, scan_frames as _scan_frames

__all__ = [
    "CheckpointStore",
    "DurabilityConfig",
    "DurabilityManager",
    "FactLog",
    "RecoveredState",
]

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


# --------------------------------------------------------------------------
# crash-fuzz injection points
# --------------------------------------------------------------------------

#: per-point hit counters of the crash injector (process-local)
_crash_hits: Dict[str, int] = {}


def _crash_armed(point: str) -> bool:
    """``True`` iff this call is the configured *k*-th hit of *point*.

    Reads ``REPRO_CRASH_POINT`` (``"<point>:<k>"``, *k* defaulting to 1) on
    every call so the test harness can set it per subprocess; when unset —
    production — the cost is one dictionary probe in ``os.environ``.
    """
    spec = os.environ.get("REPRO_CRASH_POINT")
    if not spec:
        return False
    name, _, count = spec.partition(":")
    if name != point:
        return False
    hits = _crash_hits.get(point, 0) + 1
    _crash_hits[point] = hits
    return hits == (int(count) if count else 1)


def _crash_now() -> None:  # pragma: no cover - the process dies here
    """Die exactly like the crash being simulated: no cleanup, no flush."""
    os.kill(os.getpid(), signal.SIGKILL)


def _maybe_crash(point: str) -> None:
    if _crash_armed(point):  # pragma: no cover - subprocess-only
        _crash_now()


# --------------------------------------------------------------------------
# structural JSON codec (terms, atoms)
# --------------------------------------------------------------------------


def encode_term(term: Term) -> list:
    """Structurally encode a term as a JSON-serialisable tagged list."""
    if isinstance(term, Constant):
        return ["c", term.name]
    if isinstance(term, Null):
        return ["n", term.label]
    if isinstance(term, Variable):
        return ["v", term.name]
    if isinstance(term, FunctionTerm):
        return [
            "f",
            term.function,
            [encode_term(argument) for argument in term.arguments],
        ]
    raise DurabilityError(f"unencodable term {term!r}")


def decode_term(payload: Sequence) -> Term:
    """Inverse of :func:`encode_term`; raises on malformed input."""
    tag = payload[0]
    if tag == "c":
        return Constant(payload[1])
    if tag == "n":
        return Null(payload[1])
    if tag == "v":
        return Variable(payload[1])
    if tag == "f":
        return FunctionTerm(
            payload[1],
            tuple(decode_term(argument) for argument in payload[2]),
        )
    raise DurabilityError(f"unknown term tag {tag!r}")


def encode_atom(atom: Atom) -> list:
    """``[name, terms]``: the inline atom layout of v1 log records and
    format-1 checkpoints."""
    return [atom.predicate.name, [encode_term(term) for term in atom.terms]]


def decode_atom(payload: Sequence) -> Atom:
    name, terms = payload[0], payload[1]
    return Atom(
        Predicate(name, len(terms)), tuple(decode_term(term) for term in terms)
    )


class _TermInterner:
    """Term → small-integer table: the persisted twin of the engine's
    :class:`~repro.engine.intern.SymbolTable`.

    Durable payloads mirror the in-memory storage layout: one ``syms``
    section holding each distinct ground term once (structurally encoded,
    position = id) and atoms as ``[predicate, [id, ...]]`` integer rows.
    Ids are file-local — the in-memory table's dense ids are process
    lifetimes, never durable state — so any store can be recovered into any
    process and re-interned from scratch.
    """

    def __init__(self) -> None:
        self._indices: Dict[Term, int] = {}
        self.encoded: List[list] = []

    def ref(self, term: Term) -> int:
        index = self._indices.get(term)
        if index is None:
            index = len(self.encoded)
            self._indices[term] = index
            self.encoded.append(encode_term(term))
        return index

    def atom_row(self, atom: Atom) -> list:
        return [atom.predicate.name, [self.ref(term) for term in atom.terms]]


def _atom_from_row(payload: Sequence, table: Sequence[Term]) -> Atom:
    name, ids = payload[0], payload[1]
    return Atom(
        Predicate(name, len(ids)), tuple(table[index] for index in ids)
    )


# --------------------------------------------------------------------------
# record framing — shared with the replication wire format
# --------------------------------------------------------------------------
#
# The length + CRC-32 framing lives in :mod:`repro.service.framing` so the
# replication stream (:mod:`repro.service.net.replication`) can speak the
# exact same record format over sockets; the ``_HEADER`` / ``_frame`` /
# ``_scan_frames`` names above are aliases kept for this module's callers.


def _fsync_directory(path: Path) -> None:
    """fsync a directory so a rename within it is durable (POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems without dir-fsync
        pass
    finally:
        os.close(fd)


# --------------------------------------------------------------------------
# double-open guard: flock, else an O_EXCL lock file, never a silent no-op
# --------------------------------------------------------------------------

#: emitted (once per process) only when *no* double-open guard could be
#: installed at all — the degradation is loud, never silent.
_lock_guard_warned = False


def _warn_no_lock_guard(path: Path, error: BaseException) -> None:
    global _lock_guard_warned
    if _lock_guard_warned:
        return
    _lock_guard_warned = True
    warnings.warn(
        f"no double-open guard available for write-ahead log {path}: "
        f"fcntl is missing and the lock-file fallback failed ({error!r}); "
        "two services opening this store concurrently would interleave WAL "
        "appends undetected",
        RuntimeWarning,
        stacklevel=4,
    )


def _pid_alive(pid: int) -> bool:
    """``True`` iff *pid* names a live process we can observe."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's live process
        return True
    except OSError:  # pragma: no cover - platform without kill probing
        return True
    return True


class _LockFileGuard:
    """``O_CREAT | O_EXCL`` lock-file fallback for platforms without ``fcntl``.

    The lock file sits next to the log (``<log>.lock``) and records the
    owning pid.  Acquisition is atomic by ``O_EXCL``; a lock left behind by
    a SIGKILLed owner is recovered by probing the recorded pid — a dead pid
    (or an unreadable payload from a crash mid-write) makes the lock stale,
    it is unlinked and acquisition retried exactly once.  Weaker than
    ``flock`` (a pid can be recycled; NFS semantics vary) but *never
    silent*: the double-open case raises, and only an environment where the
    lock file itself cannot be created degrades — with a one-time warning.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._held = False

    def acquire(self) -> None:
        for attempt in (1, 2):
            try:
                fd = os.open(
                    self._path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                owner = self._read_owner()
                if attempt == 1 and (owner is None or not _pid_alive(owner)):
                    # Stale: the recorded owner died (or never finished
                    # writing its pid).  Break the lock and retry once —
                    # two racing recoverers serialise on the O_EXCL retry.
                    try:
                        os.unlink(self._path)
                    except OSError:  # pragma: no cover - racing recovery
                        pass
                    continue
                holder = f" (held by pid {owner})" if owner is not None else ""
                raise DurabilityError(
                    f"write-ahead log {self._path.parent / self._path.stem} "
                    f"is already open in another process{holder}; the lock "
                    f"file is {self._path}"
                )
            except OSError as error:
                # The guard itself is unavailable (read-only dir for the
                # lock, exotic filesystem): degrade loudly, exactly once.
                _warn_no_lock_guard(self._path, error)
                return
            try:
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.fsync(fd)
            except OSError:  # pragma: no cover - best-effort pid stamp
                pass
            finally:
                os.close(fd)
            self._held = True
            return
        raise DurabilityError(  # pragma: no cover - double stale race
            f"could not acquire lock file {self._path} after stale recovery"
        )

    def _read_owner(self) -> Optional[int]:
        try:
            return int(self._path.read_text().strip())
        except (OSError, ValueError):
            return None

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self._path)
        except OSError:  # pragma: no cover - already gone
            pass


# --------------------------------------------------------------------------
# the write-ahead fact log
# --------------------------------------------------------------------------

_WAL_MAGIC = b"REPROWAL1\n"

#: one batch decoded out of the log: (batch id, [(kind, atoms), ...])
LoggedBatch = Tuple[int, List[Tuple[str, Tuple[Atom, ...]]]]


class FactLog:
    """Append-only write-ahead log of mutation batches.

    One record per coalesced batch: ``{"batch": id, "ops": [[kind, [atom,
    ...]], ...]}``, framed by :data:`_HEADER` (length + CRC-32).  ``fsync``
    batching is the caller's: :meth:`append` only pushes the record to the
    OS (a SIGKILL after ``append`` loses nothing), :meth:`sync` makes it
    power-loss durable; :class:`DatalogService` calls them back to back per
    *drain*, so a coalesced burst pays one fsync, aligned with its single
    ``apply_batch``.
    """

    def __init__(self, path: Union[str, Path], *, fsync: bool = True) -> None:
        self._path = Path(path)
        self._fsync = fsync
        self._file: Optional[io.BufferedRandom] = None
        self._fallback_lock: Optional[_LockFileGuard] = None
        #: torn tails truncated by recovery (the ``service_wal_*`` counters
        #: of :class:`DurabilityManager` record appends and syncs)
        self.torn_tails = 0

    @property
    def path(self) -> Path:
        return self._path

    def open_and_recover(self) -> List[LoggedBatch]:
        """Open the log (creating it empty), truncating any torn tail.

        Returns the decoded valid batches, oldest first.  A file whose very
        magic is damaged is *not* a torn tail — that is corruption of
        acknowledged history — and raises :class:`DurabilityError` rather
        than silently discarding it.
        """
        # Double-open guard BEFORE any byte is read or written: two
        # services interleaving appends on one log corrupt acknowledged
        # history.  ``flock`` where the platform has it; a pid-stamped
        # ``O_CREAT|O_EXCL`` lock file where it does not (stale locks from
        # dead owners are broken automatically); only an environment where
        # even the lock file cannot exist degrades — with a one-time
        # RuntimeWarning, never a silent no-op.
        exists = self._path.exists()
        self._file = open(self._path, "r+b" if exists else "x+b")
        if fcntl is not None:
            try:
                fcntl.flock(self._file.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._file.close()
                self._file = None
                raise DurabilityError(
                    f"write-ahead log {self._path} is already open "
                    "in another process"
                )
        else:
            guard = _LockFileGuard(
                self._path.with_name(self._path.name + ".lock")
            )
            try:
                guard.acquire()
            except DurabilityError:
                self._file.close()
                self._file = None
                raise
            self._fallback_lock = guard
        data = self._file.read() if exists else b""
        if not data.startswith(_WAL_MAGIC):
            if _WAL_MAGIC.startswith(data):
                # Empty or mid-magic torn: a log that never committed its
                # header holds no acknowledged history; start it fresh.
                self._file.seek(0)
                self._file.truncate()
                self._file.write(_WAL_MAGIC)
                self._file.flush()
                self._do_sync()
                return []
            self._file.close()
            self._file = None
            self._release_fallback_lock()
            raise DurabilityError(
                f"{self._path} is not a repro write-ahead log"
            )
        payloads, end = _scan_frames(data, len(_WAL_MAGIC))
        if end < len(data):
            self.torn_tails += 1
            self._file.seek(end)
            self._file.truncate()
            self._file.flush()
            self._do_sync()
        else:
            self._file.seek(end)
        batches: List[LoggedBatch] = []
        for payload in payloads:
            record = json.loads(payload.decode("utf-8"))
            syms = record.get("syms")
            if syms is not None:
                # v2 record: per-record symbol table + integer atom rows.
                table = [decode_term(entry) for entry in syms]
                ops = [
                    (kind, tuple(_atom_from_row(atom, table) for atom in atoms))
                    for kind, atoms in record["ops"]
                ]
            else:
                # v1 record (pre-interning store): structural atoms inline.
                ops = [
                    (kind, tuple(decode_atom(atom) for atom in atoms))
                    for kind, atoms in record["ops"]
                ]
            batches.append((record["batch"], ops))
        return batches

    def append(
        self, batch_id: int, ops: Sequence[Tuple[str, Sequence[Atom]]]
    ) -> int:
        """Append one batch record; returns the framed size in bytes.

        Records are written in the v2 layout: a per-record ``syms`` term
        table plus integer atom rows (see :class:`_TermInterner`) — each
        distinct term of the batch is encoded once however often it recurs
        across the batch's atoms.  :meth:`open_and_recover` reads v1
        (inline structural atoms) and v2 records alike, so logs written by
        older stores replay unchanged.
        """
        assert self._file is not None, "log not opened"
        interner = _TermInterner()
        encoded_ops = [
            [kind, [interner.atom_row(atom) for atom in atoms]]
            for kind, atoms in ops
        ]
        payload = json.dumps(
            {
                "batch": batch_id,
                "syms": interner.encoded,
                "ops": encoded_ops,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        frame = _frame(payload)
        if _crash_armed("wal.torn"):  # pragma: no cover - subprocess-only
            # A SIGKILL loses no OS-buffered bytes, so a genuinely torn tail
            # must be manufactured: push half the frame to the OS, then die.
            self._file.write(frame[: max(1, len(frame) // 2)])
            self._file.flush()
            _crash_now()
        self._file.write(frame)
        self._file.flush()
        _maybe_crash("wal.pre_sync")
        return len(frame)

    def sync(self) -> None:
        """Make everything appended so far power-loss durable."""
        assert self._file is not None, "log not opened"
        self._do_sync()
        _maybe_crash("wal.post_sync")

    def _do_sync(self) -> None:
        if self._fsync and self._file is not None:
            os.fsync(self._file.fileno())

    def reset(self) -> None:
        """Compact the log to empty (called after a durable checkpoint)."""
        assert self._file is not None, "log not opened"
        self._file.seek(len(_WAL_MAGIC))
        self._file.truncate()
        self._file.flush()
        self._do_sync()

    def _release_fallback_lock(self) -> None:
        if self._fallback_lock is not None:
            self._fallback_lock.release()
            self._fallback_lock = None

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            self._do_sync()
            self._file.close()
            self._file = None
        self._release_fallback_lock()


# --------------------------------------------------------------------------
# the checkpoint store
# --------------------------------------------------------------------------

_CKPT_MAGIC = b"REPROCKP1\n"
_CKPT_PATTERN = "checkpoint-*.ckpt"


class CheckpointStore:
    """Atomic, validated checkpoint files in one directory.

    Each checkpoint is ``checkpoint-<seq>.ckpt``: magic, then one framed
    JSON payload.  :meth:`write` goes through a temporary file + fsync +
    atomic rename + directory fsync, so the store always holds complete
    checkpoints; :meth:`latest` validates newest-first and falls back, so
    one corrupt file (torn rename on a dying disk, manual truncation) is
    skipped for the one before it.  Skipping is safe only while the log
    still holds every batch logged after the older checkpoint, as it does
    with ``compact_log=False``; :meth:`DurabilityManager.recover` checks
    that and refuses to open the store otherwise, because the default log
    compaction dropped those batches when the corrupt file was written.
    """

    def __init__(self, directory: Union[str, Path], *, keep: int = 2) -> None:
        self._directory = Path(directory)
        self._keep = max(1, keep)

    @property
    def directory(self) -> Path:
        return self._directory

    def _paths(self) -> List[Path]:
        return sorted(self._directory.glob(_CKPT_PATTERN))

    def sequence_numbers(self) -> List[int]:
        return [int(path.stem.split("-")[1]) for path in self._paths()]

    def write(self, payload: dict) -> int:
        """Durably write *payload* as the next checkpoint; returns its seq."""
        numbers = self.sequence_numbers()
        sequence = (numbers[-1] + 1) if numbers else 1
        final = self._directory / f"checkpoint-{sequence:010d}.ckpt"
        tmp = final.with_suffix(".ckpt.tmp")
        data = _CKPT_MAGIC + _frame(
            json.dumps(payload, separators=(",", ":")).encode("utf-8")
        )
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        _maybe_crash("checkpoint.mid")
        os.replace(tmp, final)
        _fsync_directory(self._directory)
        self._prune()
        return sequence

    def _prune(self) -> None:
        paths = self._paths()
        for stale in paths[: -self._keep]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass
        for orphan in self._directory.glob("*.ckpt.tmp"):
            try:
                orphan.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass

    def latest(self) -> Optional[Tuple[int, dict]]:
        """The newest checkpoint that validates, or ``None``.

        Validation covers the magic, the frame checksum, and JSON decoding;
        an invalid newest file falls back to the one before it.
        """
        return self.scan()[0]

    def scan(self) -> Tuple[Optional[Tuple[int, dict]], List[Path]]:
        """:meth:`latest`, and the invalid newer files it passed over,
        newest first."""
        invalid: List[Path] = []
        for path in reversed(self._paths()):
            payload = self._load(path)
            if payload is not None:
                return (int(path.stem.split("-")[1]), payload), invalid
            invalid.append(path)
        return None, invalid

    @staticmethod
    def _load(path: Path) -> Optional[dict]:
        try:
            data = path.read_bytes()
        except OSError:  # pragma: no cover - racing cleanup
            return None
        if not data.startswith(_CKPT_MAGIC):
            return None
        payloads, end = _scan_frames(data, len(_CKPT_MAGIC))
        if len(payloads) != 1 or end != len(data):
            return None
        try:
            payload = json.loads(payloads[0].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None


# --------------------------------------------------------------------------
# configuration + recovery surface
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs of one durable store directory.

    ``checkpoint_every`` is the cadence in logged batches between automatic
    checkpoints (the log tail — and so the recovery repair work — is bounded
    by it); ``fsync=False`` trades power-loss durability for speed while
    keeping process-crash durability (the OS page cache survives SIGKILL);
    ``compact_log=False`` keeps the full log across checkpoints, from the
    batch-0 record of the initial database on, which makes recovery robust
    even to *every* checkpoint failing validation, at the price of
    unbounded log growth.
    """

    path: Union[str, Path]
    checkpoint_every: int = 64
    fsync: bool = True
    checkpoint_on_close: bool = True
    compact_log: bool = True
    keep_checkpoints: int = 2

    @classmethod
    def of(
        cls, value: Union[None, str, Path, "DurabilityConfig"]
    ) -> Optional["DurabilityConfig"]:
        """Coerce a user-facing ``durability=`` argument to a config."""
        if value is None or isinstance(value, DurabilityConfig):
            return value
        return cls(path=value)


@dataclass
class RecoveredState:
    """What :meth:`DurabilityManager.recover` hands the service.

    ``fresh`` means the store held neither a checkpoint nor logged batches
    — the caller seeds it from its own initial database.  ``facts`` cover
    every batch up to ``batch_id`` (-1: none), from the chosen checkpoint
    or the log's batch-0 record.  ``tail`` carries the logged batches
    *beyond* it (already deduplicated), to be replayed in order through
    :meth:`~repro.query.session.QuerySession.apply_batch`.
    """

    fresh: bool
    facts: Tuple[Atom, ...]
    revision: int
    batch_id: int
    tail: List[LoggedBatch]


class DurabilityManager:
    """The service-facing facade tying the log and the store together.

    Owns one directory::

        <path>/facts.wal            the write-ahead fact log
        <path>/checkpoint-N.ckpt    the last ``keep_checkpoints`` checkpoints

    and reports ``service_wal_*`` / ``service_checkpoints`` /
    ``service_recovered_batches`` counters into the metrics registry, plus
    ``service.recover`` / ``service.checkpoint`` tracer spans.
    """

    def __init__(
        self,
        config: DurabilityConfig,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self._directory = Path(config.path)
        self._directory.mkdir(parents=True, exist_ok=True)
        registry = metrics if metrics is not None else global_registry()
        self._wal_records = registry.counter(
            "service_wal_records",
            help="Batch records appended to the write-ahead fact log.",
        )
        self._wal_bytes = registry.counter(
            "service_wal_bytes",
            help="Framed bytes appended to the write-ahead fact log.",
        )
        self._wal_syncs = registry.counter(
            "service_wal_syncs",
            help="fsync calls issued by the write-ahead fact log.",
        )
        self._wal_torn = registry.counter(
            "service_wal_torn_tails",
            help="Torn log tails detected (and truncated) during recovery.",
        )
        self._checkpoints = registry.counter(
            "service_checkpoints",
            help="Durable checkpoints written (base-fact snapshots).",
        )
        self._recovered = registry.counter(
            "service_recovered_batches",
            help="Logged batches replayed beyond the checkpoint on recovery.",
        )
        self.store = CheckpointStore(
            self._directory, keep=config.keep_checkpoints
        )
        self.log = FactLog(self._directory / "facts.wal", fsync=config.fsync)
        self._since_checkpoint = 0

    # ---------------------------------------------------------------- recover
    def recover(self) -> RecoveredState:
        """Open the store: checkpoint + idempotent log-tail replay plan.

        With no valid checkpoint the whole log replays, its batch-0 record
        (:meth:`create`) seeding the facts.  If a checkpoint failed
        validation and the log misses a batch after the starting point,
        this raises :class:`~repro.errors.DurabilityError` instead."""
        tracer = get_tracer()
        span = tracer.start("service.recover") if tracer.enabled else None
        try:
            batches = self.log.open_and_recover()
            if self.log.torn_tails:
                self._wal_torn.inc(self.log.torn_tails)
            latest, invalid = self.store.scan()
            if latest is None:
                facts: Tuple[Atom, ...] = ()
                revision = 0
                batch_id = -1
            else:
                # A ``warm`` section or ``digest`` that older stores wrote
                # holds derived state only and is not read.
                _, payload = latest
                if int(payload.get("format", 1)) >= 2:
                    table = [
                        decode_term(entry) for entry in payload["symbols"]
                    ]
                    facts = tuple(
                        _atom_from_row(atom, table)
                        for atom in payload["facts"]
                    )
                else:
                    facts = tuple(
                        decode_atom(atom) for atom in payload["facts"]
                    )
                revision = int(payload["revision"])
                batch_id = int(payload["batch_id"])
            # Idempotent replay: everything at or below the checkpoint's
            # high-water batch id is already inside the snapshot.
            tail = [
                (logged_id, ops)
                for logged_id, ops in batches
                if logged_id > batch_id
            ]
            if invalid and (not tail or tail[0][0] != batch_id + 1):
                # A newer checkpoint failed validation, and the log no
                # longer holds the batches acknowledged between the one
                # chosen and it: opening would drop them silently.
                self.close()
                raise DurabilityError(
                    "invalid checkpoint "
                    + ", ".join(str(path) for path in invalid)
                    + f": the log does not hold every batch from batch "
                    f"{batch_id + 1} on, so opening would drop acknowledged "
                    "batches"
                )
            if tail and tail[0][0] == 0:
                # The initial database seeds the facts at revision 0.
                (batch_id, ops), tail = tail[0], tail[1:]
                facts = tuple(atom for _, atoms in ops for atom in atoms)
            if tail:
                self._recovered.inc(len(tail))
            self._since_checkpoint = len(tail)
            return RecoveredState(
                fresh=latest is None and not batches,
                facts=facts,
                revision=revision,
                batch_id=batch_id,
                tail=tail,
            )
        finally:
            if span is not None:
                span.finish(
                    torn=self.log.torn_tails,
                    tail=self._since_checkpoint,
                )

    def create(self, facts: Sequence[Atom], revision: int) -> None:
        """Make a new store's initial database durable: the batch-0
        checkpoint, then a batch-0 log record of the same facts, which
        counts toward no checkpoint cadence."""
        self.checkpoint(batch_id=0, revision=revision, facts=facts)
        self.log_batch(0, [("add", facts)])
        self._since_checkpoint = 0

    # -------------------------------------------------------------- the log
    def log_batch(
        self, batch_id: int, ops: Sequence[Tuple[str, Sequence[Atom]]]
    ) -> None:
        """Durably log one batch (append + the drain's single fsync)."""
        size = self.log.append(batch_id, ops)
        self.log.sync()
        self._wal_records.inc()
        self._wal_bytes.inc(size)
        self._wal_syncs.inc()
        self._since_checkpoint += 1

    def should_checkpoint(self) -> bool:
        """``True`` once ``checkpoint_every`` batches were logged."""
        return self._since_checkpoint >= max(1, self.config.checkpoint_every)

    # --------------------------------------------------------- checkpointing
    def checkpoint(
        self,
        *,
        batch_id: int,
        revision: int,
        facts: Iterable[Atom],
    ) -> int:
        """Write a durable checkpoint, then compact the log; returns seq."""
        tracer = get_tracer()
        span = tracer.start("service.checkpoint") if tracer.enabled else None
        try:
            # Facts are integer rows against one ``symbols`` section,
            # mirroring the engine's interned storage (format-1 checkpoints
            # — structural atoms inline — remain readable).
            interner = _TermInterner()
            fact_rows = [interner.atom_row(atom) for atom in facts]
            payload = {
                "format": 3,
                "batch_id": batch_id,
                "revision": revision,
                "symbols": interner.encoded,
                "facts": fact_rows,
            }
            sequence = self.store.write(payload)
            _maybe_crash("checkpoint.post_rename")
            if self.config.compact_log:
                self.log.reset()
            self._since_checkpoint = 0
            self._checkpoints.inc()
            return sequence
        finally:
            if span is not None:
                span.finish(batch_id=batch_id, revision=revision)

    def close(self) -> None:
        self.log.close()
