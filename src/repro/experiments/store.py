"""Persistent, schema-versioned experiment results.

Every result the runner produces can be written to — and losslessly read
back from — the ``benchmarks/results/*.json`` format the repository's
benchmarks have always used.  Each file is an *envelope*::

    {
      "schema_version": 2,
      "kind": "<experiment kind>",
      "spec": { ...spec_from_dict payload... },
      "payload": { ...kind-specific encoding... },
      "integrity": {"algo": "sha256", "digest": "<hex>"}
    }

so a stored result carries the full declarative description of the
experiment that produced it.  The payload encoding belongs to the spec's
kind (:meth:`ExperimentSpec.encode_payload` /
:meth:`~ExperimentSpec.decode_payload`), so :meth:`ResultStore.load`
rebuilds the same in-memory result objects (:class:`ModelComparisonResult`,
:class:`DefenseEvaluationResult`, :class:`FlipCurve`, ...) the live run
returned.

The ``integrity`` block is a sha256 digest of the envelope's canonical
content, verified on every load (``verify=False`` opts out), so silent
bit-rot in a stored result raises :class:`IntegrityError` instead of
feeding corrupt numbers into reports.  An envelope without the block is
damaged the same way: this build reads schema version 2 only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple, Union

from repro.testing import chaos
from repro.experiments.runner import ExperimentResult
from repro.experiments.specs import spec_from_dict

SCHEMA_VERSION = 2

PathLike = Union[str, Path]


class IntegrityError(ValueError):
    """A stored envelope's content no longer matches its sha256 digest.

    Subclasses ``ValueError`` so callers with historical "unreadable
    result" handling treat corruption like any other undecodable file;
    ``repro fsck`` distinguishes it to quarantine precisely.
    """


def _content_digest(content: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of an envelope's content fields.

    Canonical means sorted keys and compact separators, so the digest is
    independent of the pretty-printing the envelope file itself uses.
    ``content`` must already be JSON-native (round-tripped), so the
    digest computed at save time equals the one recomputed from the
    parsed file at load time.
    """
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _envelope_content(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """The checksummed subset of an envelope (kind, spec, payload)."""
    return {key: envelope[key] for key in ("kind", "spec", "payload") if key in envelope}


def verify_envelope(path: Path, envelope: Dict[str, Any]) -> None:
    """Raise :class:`IntegrityError` when an envelope fails its checksum.

    An envelope without its ``integrity`` block fails too: every envelope
    this build writes carries one, so a missing block is damage.
    """
    integrity = envelope.get("integrity")
    if not isinstance(integrity, dict):
        raise IntegrityError(f"{path}: envelope has no integrity block")
    computed = _content_digest(_envelope_content(envelope))
    stored = integrity.get("digest")
    if computed != stored:
        raise IntegrityError(
            f"{path}: content digest mismatch (stored {stored!r}, computed {computed!r})"
        )


def _atomic_write_text(path: Path, text: str, point: str = "store.write") -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A crash — or an injected fault at the named chaos point — can strand a
    ``*.tmp`` file but can never leave a truncated or half-old envelope at
    ``path`` itself: readers either see the previous complete file or the
    new complete file.  The cooperative ``partial_write`` kind writes half
    the text to the temp file and then fails, modelling a torn write.
    The cooperative ``corrupt`` kind flips one bit of the payload and
    completes the replace *silently* — the disk-rot/bad-RAM failure that
    only checksum verification (``repro fsck``) can catch.
    """
    tmp = path.with_name(path.name + ".tmp")
    action = chaos.fault_point(point)
    if action == "partial_write":
        tmp.write_text(text[: max(1, len(text) // 2)])
        raise OSError(f"chaos[{point}]: write torn after {len(text) // 2} bytes")
    if action == "corrupt":
        tmp.write_bytes(chaos.corrupt_bytes(text.encode("utf-8"), point))
        os.replace(tmp, path)
        return
    tmp.write_text(text)
    os.replace(tmp, path)


def _jsonify(value: Any) -> Any:
    """Recursively replace non-finite floats with ``None``.

    Derived quantities like ``mitigation_fraction`` can legitimately be
    ``nan``; bare ``NaN`` tokens are not valid strict JSON and would make
    stored envelopes unreadable for non-Python consumers.  The decoded
    result objects recompute derived values from their raw fields, so the
    substitution is lossless for round-trips.
    """
    if isinstance(value, dict):
        return {key: _jsonify(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(entry) for entry in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


#: Subdirectory holding the sharded layout; its existence marks a store
#: directory as sharded (see :func:`open_store`).
SHARD_DIR = "shards"


def _shard_path(directory: Path, name: str) -> Path:
    """Where the sharded layout keeps ``name``: a pure function of the name.

    ``shards/<xx>/<name>.json`` with ``xx`` the first two hex digits of
    ``sha256(name)``, so a lookup needs no index and listing needs no
    parse: a shard file belongs to the store exactly when it sits at its
    own name's path.
    """
    prefix = hashlib.sha256(name.encode("utf-8")).hexdigest()[:2]
    return directory / SHARD_DIR / prefix / f"{name}.json"


class ResultStore:
    """Directory of schema-versioned experiment-result JSON files.

    Two layouts share one directory: flat ``<name>.json`` files and the
    sharded ``shards/<xx>/<name>.json`` tree (:class:`ShardedResultStore`).
    :meth:`path_for` is a pure function of the name and the only thing
    that differs between the two classes: each store writes to its own
    layout and reads both, its own first.

    Flat files go through an mtime/size index: a file is read and parsed
    once, and re-read only when its stat signature changes, so repeated
    CLI ``list`` / ``report`` calls (and programmatic :meth:`names` /
    :meth:`load` loops) cost one ``stat`` per file instead of one full JSON
    parse.  The parse is what tells envelopes from foreign JSON sharing
    the directory.  Shard files are never parsed to be listed and never
    retained after a load, so :meth:`iter_results` over a sharded store
    streams in constant memory.

    ``verify`` controls load-time checksum verification (default on).
    ``repro fsck`` is the offline scan over the same verification.
    """

    def __init__(self, directory: PathLike, verify: bool = True):
        self.directory = Path(directory)
        self.verify = verify
        #: path -> (mtime_ns, size, parsed envelope or None when unreadable
        #: / not a result envelope); entries invalidate themselves whenever
        #: the stat signature stops matching.
        self._index: Dict[Path, tuple] = {}
        #: Number of result files actually read and JSON-parsed (index hits
        #: excluded) — lets tests assert how much I/O an operation cost.
        self.files_parsed = 0

    def path_for(self, name: str) -> Path:
        """Filesystem path a result of this name is stored at."""
        return self.directory / f"{name}.json"

    def _read_paths(self, name: str) -> Tuple[Path, Path]:
        """Where ``name`` may live: this store's own path, then the other layout's."""
        own = self.path_for(name)
        flat = self.directory / f"{name}.json"
        return own, (_shard_path(self.directory, name) if own == flat else flat)

    def _envelope_for(self, path: Path) -> Any:
        """The parsed envelope of ``path``, via the mtime/size index.

        Returns ``None`` (and caches the verdict) for files that vanish,
        cannot be parsed, or are not this store's envelopes — exactly the
        files :meth:`names` has always skipped.
        """
        try:
            stat = path.stat()
        except OSError:
            self._index.pop(path, None)
            return None
        signature = (stat.st_mtime_ns, stat.st_size)
        cached = self._index.get(path)
        if cached is not None and cached[:2] == signature:
            return cached[2]
        try:
            envelope = json.loads(path.read_text())
            self.files_parsed += 1
        except (OSError, json.JSONDecodeError):
            envelope = None
        if not (isinstance(envelope, dict) and "schema_version" in envelope):
            envelope = None
        self._index[path] = (*signature, envelope)
        return envelope

    def _encode_envelope(self, result: ExperimentResult) -> Dict[str, Any]:
        """The on-disk envelope dict for ``result`` (spec + encoded payload)."""
        content = {
            "kind": result.kind,
            "spec": result.spec.to_dict(),
            "payload": _jsonify(result.spec.encode_payload(result.payload)),
        }
        # Round-trip through JSON before digesting so the checksummed
        # values are exactly what a reader parses back (tuples become
        # lists, numpy scalars become floats) — the digest verifies
        # identically against the file content forever after.
        content = json.loads(json.dumps(content, default=float, allow_nan=False))
        return {
            "schema_version": SCHEMA_VERSION,
            **content,
            "integrity": {"algo": "sha256", "digest": _content_digest(content)},
        }

    def _decode_envelope(self, path: Path, envelope: Dict[str, Any]) -> ExperimentResult:
        """Rebuild the in-memory result from a parsed envelope dict.

        Verifies the embedded checksum first (when the store verifies):
        corrupt or checksum-less content raises :class:`IntegrityError`
        before any decoding can misread it.
        """
        version = envelope.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"{path} has schema version {version!r}; this build reads {SCHEMA_VERSION}"
            )
        if self.verify:
            verify_envelope(path, envelope)
        spec = spec_from_dict(envelope["spec"])
        return ExperimentResult(spec=spec, payload=spec.decode_payload(envelope["payload"]))

    def save(self, name: str, result: ExperimentResult) -> Path:
        """Persist ``result`` at :meth:`path_for` atomically; returns the path.

        The temp-file + rename write guarantees a reader (or a daemon
        restart) never observes a torn envelope, whatever kills the writer
        mid-save.  A copy of ``name`` in the other layout is left alone.
        """
        envelope = self._encode_envelope(result)
        path = self.path_for(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(
            path, json.dumps(envelope, indent=2, default=float, allow_nan=False)
        )
        return path

    def load(self, name: str) -> ExperimentResult:
        """Reconstruct the result previously saved under ``name``.

        Reads this store's own path when it exists, else the other
        layout's.  A flat envelope comes from the mtime/size index (parsed
        once per on-disk version of the file); a shard file is parsed on
        demand and not retained.  Decoding builds fresh result objects on
        every call, so callers may mutate what they get back.
        """
        own, other = self._read_paths(name)
        path = other if not own.is_file() and other.is_file() else own
        envelope = self._envelope_for(path) if path.parent == self.directory else None
        if envelope is None:
            # Preserve the historical error surface: a missing file raises
            # OSError, a non-envelope JSON file a ValueError.
            envelope = json.loads(path.read_text())
            self.files_parsed += 1
        return self._decode_envelope(path, envelope)

    def iter_results(self) -> Iterator[Tuple[str, ExperimentResult]]:
        """Yield ``(name, result)`` pairs one at a time, in name order.

        The streaming counterpart of ``{name: load(name) for ...}``: each
        result is decoded only when the consumer reaches it, so aggregation
        (the CLI ``report``) holds one decoded result at a time regardless
        of store size.
        """
        for name in self.names():
            yield name, self.load(name)

    def names(self) -> List[str]:
        """Names of every loadable result in the store (sorted).

        Flat files are answered from the mtime/size index, so a listing
        re-reads only the files added or rewritten since the previous
        call.  Shard files are listed by path alone: a file counts when it
        sits at its own name's shard path, and none is parsed.
        """
        found = set()
        for path in self.directory.glob("*.json"):
            envelope = self._envelope_for(path)
            if envelope is not None and envelope.get("schema_version") == SCHEMA_VERSION:
                found.add(path.stem)
        for path in self.directory.glob(f"{SHARD_DIR}/*/*.json"):
            if path == _shard_path(self.directory, path.stem):
                found.add(path.stem)
        return sorted(found)

    def __contains__(self, name: str) -> bool:
        return any(path.is_file() for path in self._read_paths(name))


class ShardedResultStore(ResultStore):
    """A :class:`ResultStore` that writes to the sharded layout.

    ``name`` lives at ``shards/<xx>/<name>.json``, ``xx`` being the first
    two hex digits of ``sha256(name)``, so each shard directory holds
    about a 256th of a fleet-scale campaign's files.  Flat files in the
    store root stay readable.
    """

    def path_for(self, name: str) -> Path:
        """Sharded path of ``name`` (a pure function of the name)."""
        return _shard_path(self.directory, name)

    # Delegates unchanged, but must stay: perfbench/tracer.py wraps
    # ``save`` per class and looks it up in this class's own ``__dict__``.
    def save(self, name: str, result: ExperimentResult) -> Path:
        return super().save(name, result)


def open_store(
    directory: PathLike, sharded: Union[bool, None] = None, verify: bool = True
) -> ResultStore:
    """Open the right store flavour for ``directory``.

    Auto-detects by layout: a ``shards/`` subdirectory means
    :class:`ShardedResultStore`, anything else the flat
    :class:`ResultStore`.  Both read either layout; the flavour decides
    where new results are written.  Pass ``sharded=True``/``False`` to
    force a flavour (e.g. when creating a new sharded store).  ``verify``
    is forwarded to the store (checksum verification on load, default on).
    """
    root = Path(directory)
    if sharded is None:
        sharded = (root / SHARD_DIR).is_dir()
    return ShardedResultStore(root, verify=verify) if sharded else ResultStore(root, verify=verify)
