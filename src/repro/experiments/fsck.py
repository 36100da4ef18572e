"""Offline integrity check and repair for the experiment state on disk.

``repro fsck`` is the operator's answer to "can I trust this store?": it
scans a result store (flat and sharded layouts), verifies every
envelope against its embedded sha256 digest and every shard file's
place in the tree, and optionally **quarantines** corrupt files into a
``quarantine/`` subdirectory.  The same machinery checks a job-queue
directory (checksummed ``job-*.json`` files) and — with ``--shm`` —
sweeps ``/dev/shm`` for victim-registry segments orphaned by a daemon
that died without cleanup, keyed on the registry's liveness manifest
(``registry.json``: owner pid + owned segment names).

Design rules:

* **Zero false positives.**  Only a file whose embedded checksum is
  missing or fails to verify (or that no longer parses at all, or sits
  in the shard tree away from its own name's path) is ever reported or
  quarantined; flat JSON files that are not envelopes are left
  untouched.
* **Nothing is destroyed.**  Quarantine *moves* files (same filesystem,
  ``os.replace``) into ``quarantine/`` — an operator can inspect or
  restore them; nothing is unlinked except provably-orphaned shared
  memory (a dead pid's manifest entries).
* **Deterministic.**  The scan order is sorted, so two fscks of the same
  tree produce identical reports.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.experiments.queue import _JOB_PREFIX, _job_checksum
from repro.experiments.shared import (
    REGISTRY_MANIFEST_FILE,
    SEGMENT_PREFIX,
    _SHM_DIR,
    pid_alive,
)
from repro.experiments.store import (
    SCHEMA_VERSION,
    SHARD_DIR,
    _content_digest,
    _envelope_content,
    _shard_path,
)

PathLike = Union[str, Path]

#: Subdirectory corrupt files are moved into (store root / queue root).
QUARANTINE_DIR = "quarantine"


@dataclass
class FsckIssue:
    """One problem fsck found: a file and why it cannot be trusted.

    ``problem`` is ``digest-mismatch`` (content no longer matches the
    embedded sha256, or the sha256 is missing) or ``unreadable`` (the
    file does not parse as an envelope at all, or is a shard file away
    from its own name's path, where no store looks for it).
    ``quarantined`` records whether the repair pass moved the file.
    """

    path: Path
    problem: str
    detail: str = ""
    quarantined: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description of the issue."""
        return {
            "path": str(self.path),
            "problem": self.problem,
            "detail": self.detail,
            "quarantined": self.quarantined,
        }


@dataclass
class FsckReport:
    """What an fsck pass scanned, verified, and flagged.

    ``scanned`` counts every candidate file examined, ``verified`` the
    ones whose checksum held.  ``issues`` lists every untrustworthy file.
    """

    scanned: int = 0
    verified: int = 0
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the tree is fully trustworthy (no issues at all)."""
        return not self.issues

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description of the report."""
        return {
            "scanned": self.scanned,
            "verified": self.verified,
            "issues": [issue.to_dict() for issue in self.issues],
            "clean": self.clean,
        }


def _quarantine(path: Path, root: Path) -> Path:
    """Move ``path`` into ``root/quarantine/`` (never overwriting)."""
    target_dir = root / QUARANTINE_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / path.name
    counter = 1
    while target.exists():
        target = target_dir / f"{path.stem}.{counter}{path.suffix}"
        counter += 1
    os.replace(path, target)
    return target


def _check_envelope_file(path: Path) -> Tuple[str, str]:
    """Classify one result file: ``(verdict, detail)``.

    Verdict is ``ok`` / ``foreign`` / ``unreadable`` / ``digest-mismatch``.
    Detection is belt-and-braces: the content digest catches value
    corruption, and a byte-exact comparison against the canonical
    serialisation catches flips the digest cannot see (whitespace, a
    mangled key name) — every envelope is machine-written in exactly one
    format, so any drift from it is damage, not style.  Files that are
    not envelopes at all (no schema marker, no integrity block) are
    ``foreign`` and never flagged — fsck must report zero false positives
    on clean trees.
    """
    try:
        raw = path.read_text()
        envelope = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        return "unreadable", f"{type(exc).__name__}: {exc}"
    if not isinstance(envelope, dict):
        return "foreign", "not a result envelope"
    version = envelope.get("schema_version")
    integrity = envelope.get("integrity")
    has_integrity = isinstance(integrity, dict)
    if version != SCHEMA_VERSION:
        if has_integrity or version is not None:
            # Envelope-like but mislabeled: a flipped bit in the schema
            # marker is corruption, not a foreign file.
            return "unreadable", f"bad schema version {version!r}"
        return "foreign", "not a result envelope"
    if not has_integrity:
        return "digest-mismatch", "envelope missing its integrity block"
    computed = _content_digest(_envelope_content(envelope))
    stored = integrity.get("digest")
    if computed != stored:
        return "digest-mismatch", f"stored {stored!r}, computed {computed!r}"
    if raw != json.dumps(envelope, indent=2, allow_nan=False):
        return "digest-mismatch", "file bytes differ from the canonical serialisation"
    return "ok", ""


def _result_files(root: Path) -> Iterable[Path]:
    """Every candidate result file: flat root plus ``shards/*/``."""
    yield from sorted(root.glob("*.json"))
    yield from sorted(root.glob(f"{SHARD_DIR}/*/*.json"))


def fsck_store(directory: PathLike, quarantine: bool = False) -> FsckReport:
    """Scan a result store; verify and optionally quarantine.

    Walks every result file (flat and sharded), verifies checksummed
    envelopes, and reports the rest.  A shard file that is not at its own
    name's path is ``unreadable``: no store looks for it there (stores
    written before names alone chose the shard look like this).  With
    ``quarantine=True`` the flagged files are moved to
    ``<directory>/quarantine/``, so a second fsck is clean.
    """
    root = Path(directory)
    report = FsckReport()
    if not root.is_dir():
        return report
    for path in _result_files(root):
        report.scanned += 1
        home = _shard_path(root, path.stem)
        if path.parent != root and path != home:
            verdict, detail = "unreadable", f"shard file away from its name's path {home}"
        else:
            verdict, detail = _check_envelope_file(path)
        if verdict == "ok":
            report.verified += 1
            continue
        if verdict == "foreign":
            continue  # not ours: never a false positive
        issue = FsckIssue(path=path, problem=verdict, detail=detail)
        if quarantine:
            issue.path = _quarantine(path, root)
            issue.quarantined = True
        report.issues.append(issue)
    return report


def fsck_queue(directory: PathLike, quarantine: bool = False) -> FsckReport:
    """Scan a job-queue directory's checksummed ``job-*.json`` files.

    A job file whose embedded ``sha256`` is missing or fails to verify
    (or that no longer parses) is reported — and moved to
    ``<directory>/quarantine/`` with ``quarantine=True`` so a daemon
    reloading the queue never resurrects corrupt job state.
    """
    root = Path(directory)
    report = FsckReport()
    if not root.is_dir():
        return report
    for path in sorted(root.glob(f"{_JOB_PREFIX}*.json")):
        report.scanned += 1
        try:
            raw = path.read_text()
            payload = json.loads(raw)
        except (OSError, json.JSONDecodeError) as exc:
            issue = FsckIssue(path, "unreadable", f"{type(exc).__name__}: {exc}")
            if quarantine:
                issue.path = _quarantine(path, root)
                issue.quarantined = True
            report.issues.append(issue)
            continue
        if not isinstance(payload, dict):
            issue = FsckIssue(path, "unreadable", "not a job record")
            if quarantine:
                issue.path = _quarantine(path, root)
                issue.quarantined = True
            report.issues.append(issue)
            continue
        stored = payload.pop("sha256", None)
        computed = _job_checksum(payload)
        detail = ""
        if stored is None:
            detail = "job record missing its sha256"
        elif computed != stored:
            detail = f"stored {stored!r}, computed {computed!r}"
        elif raw != json.dumps({**payload, "sha256": stored}, indent=2):
            # Same belt-and-braces as result envelopes: a flip the content
            # digest cannot see (whitespace, key text) still shows up as
            # drift from the writer's canonical serialisation.
            detail = "file bytes differ from the canonical serialisation"
        if detail:
            issue = FsckIssue(path, "digest-mismatch", detail)
            if quarantine:
                issue.path = _quarantine(path, root)
                issue.quarantined = True
            report.issues.append(issue)
            continue
        report.verified += 1
    return report


def sweep_shm(
    queue_dirs: Iterable[PathLike] = (),
    shm_dir: Optional[PathLike] = None,
    force_unclaimed: bool = False,
) -> Dict[str, List[str]]:
    """Remove victim-registry segments whose owning daemon is dead.

    Reads every ``registry.json`` liveness manifest under the given queue
    directories.  A manifest whose recorded pid is alive protects its
    segments; a dead pid's manifest marks its segments as orphans — they
    are unlinked and the stale manifest is removed.  ``repro_victim_*``
    segments claimed by **no** manifest are *kept*: "unclaimed by the
    manifests we were shown" is not proof of orphanhood — a live daemon
    serving a queue directory outside ``queue_dirs`` may own them, and
    sweeping them would yank shared memory out from under it.  Pass
    ``force_unclaimed=True`` to remove unclaimed segments too; that is an
    explicit operator decision, only safe once every daemon on the host
    is stopped.  Segments outside the ``repro_victim_`` namespace are
    never touched.

    Returns ``{"removed": [...], "kept": [...], "stale_manifests": [...]}``.
    """
    shm_root = _SHM_DIR if shm_dir is None else Path(shm_dir)
    protected: set = set()
    orphaned: set = set()
    stale_manifests: List[Path] = []
    for queue_dir in queue_dirs:
        manifest_path = Path(queue_dir) / REGISTRY_MANIFEST_FILE
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        pid = manifest.get("pid")
        segments = manifest.get("segments", [])
        if pid is not None and pid_alive(int(pid)):
            protected.update(segments)
        else:
            orphaned.update(segments)
            stale_manifests.append(manifest_path)
    removed: List[str] = []
    kept: List[str] = []
    if shm_root.is_dir():
        for path in sorted(shm_root.glob(f"{SEGMENT_PREFIX}*")):
            if path.name in protected:
                kept.append(path.name)
                continue
            if path.name not in orphaned and not force_unclaimed:
                kept.append(path.name)  # unclaimed != provably orphaned
                continue
            try:
                path.unlink()
                removed.append(path.name)
            except OSError:  # pragma: no cover - raced removal
                kept.append(path.name)
    for manifest_path in stale_manifests:
        try:
            manifest_path.unlink()
        except OSError:  # pragma: no cover - raced removal
            pass
    return {
        "removed": removed,
        "kept": kept,
        "stale_manifests": [str(path) for path in stale_manifests],
    }

