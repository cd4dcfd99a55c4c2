"""Persistent run ledger — the flight recorder behind every runner.

Every runner/experiment/sweep invocation can emit a schema-versioned
:class:`RunRecord` — config + seed, the metrics registry's
``dump()``, span-stat rollups, billing totals, deadline outcomes, and a
wall-time/simulated-time phase profile — appended as one JSON line to a
ledger under ``.repro/runs/``.  The ledger is the queryable history the
SLO engine (:mod:`repro.obs.slo`) evaluates over and the diff engine
(:mod:`repro.obs.diff`) compares runs from.

Activation is explicit, mirroring the metrics/trace default bundle: the
module default ledger starts as ``None`` (nothing is written), the CLI
installs a file-backed ledger per invocation, and tests capture records
in-memory with :func:`capture_runs`.  Emission sites (``runner/core.py``,
``runner/columnar.py``, the sweep harness, the experiments) all guard on
``get_run_ledger() is not None`` so un-ledgered runs pay one global read.

Records stay bounded: every field holds only JSON values its caller
built (experiments pass summaries such as a plan digest, never the plan
object).  The encoder is strict -- any other value raises
:class:`LedgerError` naming its key path (``extra.variants.8a.plan:
ProvisioningPlan is not JSON-serialisable``) before anything is written,
in-memory ledgers included.  numpy scalars convert; arrays and sets are
refused (a set's order depends on the hash seed).  Schema 2 is this
shape; schema 1 records could hold ``str()`` dumps of arbitrary objects.

``run_id`` is ``<label>-<n>`` where ``n`` is the ledger's line count plus
one.  A file-backed ledger remembers the byte offset and line count it
last saw and counts newlines only in the bytes appended since (by itself
or by another appender), so an append costs O(record), not O(ledger).

Determinism note: ``run_id`` and ``created_at`` identify a record and are
wall-clock flavoured; everything the diff engine treats as *deterministic*
(metrics, spans, billing, deadline, sim-time profile) is bit-reproducible
for a fixed seed.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.obs import get_obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "SCHEMA_VERSION", "RunRecord", "RunLedger", "LedgerError",
    "get_run_ledger", "set_run_ledger", "configure_run_ledger",
    "capture_runs", "record_experiment",
    "encode_metrics_dump", "decode_metrics_dump", "span_rollup",
]

#: Bumped whenever RunRecord's serialized shape changes incompatibly.
SCHEMA_VERSION = 2

#: What each schema version changed, for ``runs diff`` across versions.
SCHEMA_CHANGES = {
    2: "fields hold only JSON values; experiment extras are summaries, "
       "not str() dumps of plan/report objects",
}

DEFAULT_ROOT = ".repro/runs"
LEDGER_FILENAME = "ledger.jsonl"


class LedgerError(ValueError):
    """Unresolvable run reference, malformed record, or bad ledger root."""


# -- serialization helpers ------------------------------------------------

class _NotJSON(Exception):
    """A value with no JSON form; ``path`` collects keys while unwinding."""

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value
        self.path: list[str] = []


def _key(key: Any) -> str:
    if isinstance(key, (str, int, float, bool)) or key is None:
        return str(key)
    if isinstance(key, np.generic):
        return _key(key.item())
    raise _NotJSON(key)


def _encode(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            try:
                out[_key(k)] = _encode(v)
            except _NotJSON as exc:
                exc.path.append(str(k))
                raise
        return out
    if isinstance(value, (list, tuple)):
        items = []
        for i, v in enumerate(value):
            try:
                items.append(_encode(v))
            except _NotJSON as exc:
                exc.path.append(str(i))
                raise
        return items
    if isinstance(value, np.generic):
        return _encode(value.item())
    raise _NotJSON(value)


def _jsonable(value: Any, where: str = "value") -> Any:
    """Plain-JSON copy of ``value``; raise LedgerError on anything else.

    Dicts, lists, tuples, str/int/float/bool/None and numpy scalars
    convert; everything else (arrays, sets, arbitrary objects) is refused
    with the dotted key path rooted at ``where``.
    """
    try:
        return _encode(value)
    except _NotJSON as exc:
        path = ".".join([where, *reversed(exc.path)])
        raise LedgerError(f"{path}: {type(exc.value).__name__} is not "
                          "JSON-serialisable") from None


def encode_metrics_dump(rows: list) -> list:
    """JSON-safe form of :meth:`MetricsRegistry.dump` (tuples → lists).

    Python's ``json`` round-trips finite floats exactly and writes
    ``Infinity`` for the empty-histogram sentinels, so the encoded rows
    decode back bit-identical (see :func:`decode_metrics_dump`).
    """
    out = []
    for name, labels, kind, state in rows:
        if kind == "histogram":
            bounds, counts, count, total, vmin, vmax = state
            enc_state = [list(bounds), list(counts), count, total, vmin, vmax]
        else:
            enc_state = state
        out.append([name, [[str(k), _jsonable(v)] for k, v in labels],
                    kind, enc_state])
    return out


def decode_metrics_dump(rows: list) -> list:
    """Inverse of :func:`encode_metrics_dump`: rows ready for ``merge_dump``."""
    out = []
    for name, labels, kind, state in rows:
        if kind == "histogram":
            bounds, counts, count, total, vmin, vmax = state
            dec_state = (tuple(bounds), tuple(counts), count, total, vmin, vmax)
        else:
            dec_state = state
        out.append((name, tuple((k, v) for k, v in labels), kind, dec_state))
    return out


def span_rollup(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-name span stats straight off the raw tuples (no materialisation)."""
    out: dict[str, dict[str, float]] = {}
    for row in tracer._raw_spans:
        name, t0, t1 = row[0], row[2], row[3]
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"count": 0, "total_s": 0.0}
        agg["count"] += 1
        agg["total_s"] += t1 - t0
    return out


# -- the record -----------------------------------------------------------

@dataclass
class RunRecord:
    """One run's flight-recorder entry (see module docstring for fields)."""

    kind: str                       # "runner" | "columnar" | "sweep-cell" | ...
    label: str                      # entry point / experiment name
    run_id: str = ""                # assigned by the ledger on append if empty
    created_at: str = ""            # ISO-8601 UTC wall clock
    schema_version: int = SCHEMA_VERSION
    config: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)      # encoded dump rows
    spans: dict = field(default_factory=dict)        # name -> {count, total_s}
    billing: dict = field(default_factory=dict)      # BillingLedger.summary()
    deadline: dict = field(default_factory=dict)     # outcome fields
    profile: dict = field(default_factory=dict)      # wall/sim phase profile
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready mapping of this record (inverse of ``from_dict``)."""
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "created_at": self.created_at,
            "config": _jsonable(self.config, "config"),
            "metrics": _jsonable(self.metrics, "metrics"),
            "spans": _jsonable(self.spans, "spans"),
            "billing": _jsonable(self.billing, "billing"),
            "deadline": _jsonable(self.deadline, "deadline"),
            "profile": _jsonable(self.profile, "profile"),
            "extra": _jsonable(self.extra, "extra"),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        try:
            return cls(
                kind=d["kind"], label=d["label"],
                run_id=d.get("run_id", ""),
                created_at=d.get("created_at", ""),
                schema_version=d.get("schema_version", SCHEMA_VERSION),
                config=d.get("config", {}) or {},
                metrics=d.get("metrics", []) or [],
                spans=d.get("spans", {}) or {},
                billing=d.get("billing", {}) or {},
                deadline=d.get("deadline", {}) or {},
                profile=d.get("profile", {}) or {},
                extra=d.get("extra", {}) or {},
            )
        except KeyError as exc:
            raise LedgerError(f"run record missing field {exc}") from None

    # -- queries ----------------------------------------------------------

    def metric_rows(self) -> list:
        """Decoded dump rows (merge-ready tuples)."""
        return decode_metrics_dump(self.metrics)

    def metrics_registry(self) -> MetricsRegistry:
        """A fresh registry holding this record's metrics."""
        reg = MetricsRegistry()
        reg.merge_dump(self.metric_rows())
        return reg

    def metric_value(self, name: str, **labels: Any) -> float:
        """Counter/gauge value for a series (0.0 if absent)."""
        want = tuple(sorted((str(k), _jsonable(v)) for k, v in labels.items()))
        for rname, rlabels, kind, state in self.metric_rows():
            if rname == name and tuple(sorted(rlabels)) == want \
                    and kind != "histogram":
                return state
        return 0.0

    def get(self, path: str, default: Any = None) -> Any:
        """Dotted-path lookup into the record dict (``"billing.cost_usd"``)."""
        node: Any = self.to_dict()
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                return default
            node = node[part]
        return node


# -- the ledger -----------------------------------------------------------

class RunLedger:
    """Append-only JSONL run ledger; file-backed or in-memory.

    With ``root`` set, every append writes one line to
    ``root/ledger.jsonl`` (created on first append) and reads re-scan the
    file, so concurrent appenders interleave safely at line granularity.
    With ``root=None`` the ledger is a plain in-memory buffer — the shape
    sweep workers and tests use.
    """

    def __init__(self, root: str | os.PathLike | None = DEFAULT_ROOT, *,
                 filename: str = LEDGER_FILENAME) -> None:
        self.root = Path(root) if root is not None else None
        self.filename = filename
        self._buffer: list[RunRecord] = []
        # Line-count cursor over the file: (device, inode) it was taken
        # on, bytes seen, newlines in them, and whether they end in one.
        self._file_id: tuple[int, int] | None = None
        self._offset = 0
        self._newlines = 0
        self._ends_open = False

    @property
    def path(self) -> Path | None:
        return self.root / self.filename if self.root is not None else None

    def __len__(self) -> int:
        return len(self.records())

    # -- writing ----------------------------------------------------------

    def append(self, record: RunRecord) -> RunRecord:
        """Stamp identity fields if unset, persist, and return the record.

        The record is encoded before anything is stored, so a non-JSON
        value raises :class:`LedgerError` and leaves the ledger unchanged.
        """
        if not record.created_at:
            record.created_at = datetime.now(timezone.utc).isoformat(
                timespec="seconds")
        if not record.run_id:
            n = len(self._buffer) if self.root is None else self._count_lines()
            record.run_id = f"{record.label}-{n + 1:04d}"
        encoded = record.to_dict()
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            line = json.dumps(encoded, sort_keys=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        else:
            self._buffer.append(record)
        obs = get_obs()
        if obs.metrics.enabled:
            obs.metrics.counter("obs.ledger.records", kind=record.kind).inc()
        return record

    def _count_lines(self) -> int:
        """Lines in the file, counting only bytes added since the last call.

        A final line without a newline counts, as iterating the file
        would.  A file that was replaced or shrank is recounted whole.
        """
        path = self.path
        if path is None:
            return 0
        try:
            st = path.stat()
        except FileNotFoundError:
            self._file_id = None
            return 0
        file_id = (st.st_dev, st.st_ino)
        if file_id != self._file_id or st.st_size < self._offset:
            self._file_id = file_id
            self._offset = self._newlines = 0
            self._ends_open = False
        if st.st_size > self._offset:
            with open(path, "rb") as fh:
                fh.seek(self._offset)
                while chunk := fh.read(1 << 20):
                    self._offset += len(chunk)
                    self._newlines += chunk.count(b"\n")
                    self._ends_open = not chunk.endswith(b"\n")
        return self._newlines + self._ends_open

    # -- reading ----------------------------------------------------------

    def _iter_records(self) -> Iterator[RunRecord]:
        if self.root is None:
            yield from self._buffer
            return
        path = self.path
        if path is None or not path.exists():
            return
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield RunRecord.from_dict(json.loads(line))
                except (json.JSONDecodeError, LedgerError) as exc:
                    raise LedgerError(
                        f"{path}:{lineno}: malformed run record: {exc}"
                    ) from None

    def records(self, *, kind: str | None = None,
                label: str | None = None) -> list[RunRecord]:
        """All records, oldest first, optionally filtered."""
        out = list(self._iter_records())
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if label is not None:
            out = [r for r in out if r.label == label]
        return out

    def resolve(self, ref: str, *, label: str | None = None) -> RunRecord:
        """A record by ``run_id``, or by negative index (``-1`` = latest)."""
        records = self.records(label=label)
        if not records:
            raise LedgerError("ledger is empty"
                              + (f" (path {self.path})" if self.path else ""))
        for rec in records:
            if rec.run_id == ref:
                return rec
        try:
            idx = int(ref)
        except ValueError:
            raise LedgerError(
                f"no run {ref!r} in ledger"
                + (f" (path {self.path})" if self.path else "")) from None
        try:
            return records[idx]
        except IndexError:
            raise LedgerError(
                f"index {idx} out of range for {len(records)} records"
            ) from None


# -- module default -------------------------------------------------------

_active: RunLedger | None = None


def get_run_ledger() -> RunLedger | None:
    """The module-default ledger emission sites write to (None = off)."""
    return _active


def set_run_ledger(ledger: RunLedger | None) -> RunLedger | None:
    """Install ``ledger`` as the default; returns the previous one."""
    global _active
    previous, _active = _active, ledger
    return previous


def configure_run_ledger(root: str | os.PathLike = DEFAULT_ROOT) -> RunLedger:
    """Install a file-backed default ledger under ``root`` and return it."""
    ledger = RunLedger(root)
    set_run_ledger(ledger)
    return ledger


@contextmanager
def capture_runs() -> Iterator[RunLedger]:
    """Install an in-memory default ledger for the ``with`` body."""
    ledger = RunLedger(None)
    previous = set_run_ledger(ledger)
    try:
        yield ledger
    finally:
        set_run_ledger(previous)


def record_experiment(label: str, *, config: dict | None = None,
                      extra: dict | None = None,
                      deadline: dict | None = None,
                      billing: dict | None = None,
                      kind: str = "experiment") -> RunRecord | None:
    """Append an experiment-level record to the active ledger (no-op if off).

    The experiments call this once per figure with their headline stats in
    ``extra`` — cell-level records are emitted by the runners/sweep
    underneath, so this is the roll-up row a ``runs list`` shows.  Every
    argument must be plain JSON (see :func:`_jsonable`): pass summaries,
    not the objects they summarise.
    """
    ledger = get_run_ledger()
    if ledger is None:
        return None
    obs = get_obs()
    record = RunRecord(
        kind=kind, label=label,
        config=config or {},
        metrics=(encode_metrics_dump(obs.metrics.dump())
                 if obs.metrics.enabled else []),
        spans=span_rollup(obs.tracer) if obs.tracer.enabled else {},
        deadline=deadline or {},
        billing=billing or {},
        extra=extra or {},
    )
    return ledger.append(record)
