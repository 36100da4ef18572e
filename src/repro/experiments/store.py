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
from repro.experiments.specs import spec_from_dict, spec_hash

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


class ResultStore:
    """Directory of schema-versioned experiment-result JSON files.

    The store keeps an mtime/size index over the directory: a file is read
    and parsed once, and re-read only when its stat signature changes, so
    repeated CLI ``list`` / ``report`` calls (and programmatic
    :meth:`names` / :meth:`load` loops) over a large result directory cost
    one ``stat`` per file instead of one full JSON parse.

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
        """Persist ``result`` under ``name`` atomically; returns the path.

        The temp-file + rename write guarantees a reader (or a daemon
        restart) never observes a torn envelope, whatever kills the writer
        mid-save.
        """
        envelope = self._encode_envelope(result)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(name)
        _atomic_write_text(
            path, json.dumps(envelope, indent=2, default=float, allow_nan=False)
        )
        return path

    def load(self, name: str) -> ExperimentResult:
        """Reconstruct the result previously saved under ``name``.

        The raw envelope comes from the mtime/size index (parsed once per
        on-disk version of the file); decoding still builds fresh result
        objects on every call, so callers may mutate what they get back.
        """
        path = self.path_for(name)
        envelope = self._envelope_for(path)
        if envelope is None:
            # Preserve the historical error surface: a missing file raises
            # OSError, a non-envelope JSON file a ValueError.
            envelope = json.loads(path.read_text())
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

        Backed by the mtime/size index: unchanged files are answered from
        the cached parse, so a listing over a populated store re-reads only
        the files that were added or rewritten since the previous call.
        """
        if not self.directory.is_dir():
            return []
        found = []
        for path in sorted(self.directory.glob("*.json")):
            envelope = self._envelope_for(path)
            if envelope is not None and envelope.get("schema_version") == SCHEMA_VERSION:
                found.append(path.stem)
        return found

    def __contains__(self, name: str) -> bool:
        return self.path_for(name).is_file()


class ShardedResultStore(ResultStore):
    """A :class:`ResultStore` partitioned by spec-hash prefix.

    Fleet-scale campaigns produce orders of magnitude more result files
    than the flat layout's single directory (and single stat-everything
    index pass) can serve.  This store partitions results into
    ``shards/<xx>/`` subdirectories — ``xx`` being the first two hex digits
    of the producing spec's :func:`~repro.experiments.specs.spec_hash` —
    and maintains one ``_index.json`` per shard mapping result names to
    ``{kind, spec_hash, mtime_ns, size}``.  Listing reads the (tiny, also
    mtime-cached) shard indexes instead of every result file, and
    :meth:`load` parses result files on demand *without* retaining the
    parsed envelope, so :meth:`~ResultStore.iter_results` aggregation
    streams in constant memory.

    Legacy flat files in the store root remain readable (read-through);
    :meth:`migrate` moves them into shards in place.
    """

    #: Subdirectory holding the shard tree; its existence marks a store
    #: directory as sharded (see :func:`open_store`).
    SHARD_DIR = "shards"

    def __init__(self, directory: PathLike, verify: bool = True):
        super().__init__(directory, verify=verify)
        #: result name -> path of its sharded file (rebuilt from the shard
        #: indexes whenever a lookup misses).
        self._locations: Dict[str, Path] = {}
        #: index-file path -> ((mtime_ns, size), entries) parse cache.
        self._shard_index_cache: Dict[Path, tuple] = {}

    # -- layout --------------------------------------------------------
    def shard_prefix(self, spec_payload: Dict[str, Any]) -> str:
        """The two-hex-digit shard a spec payload's results live in."""
        return spec_hash(spec_payload)[:2]

    def path_for(self, name: str) -> Path:
        """Sharded path when the shard indexes know ``name``, else flat.

        The flat fallback keeps legacy (pre-sharding) files readable and
        preserves the historical miss behaviour: loading an unknown name
        raises ``OSError`` from the flat path.
        """
        located = self._locations.get(name)
        if located is None:
            flat = self.directory / f"{name}.json"
            if flat.is_file():
                return flat
            self._refresh_locations()
            located = self._locations.get(name)
            if located is None:
                return flat
        return located

    # -- shard indexes -------------------------------------------------
    def _read_shard_index(self, index_path: Path) -> Dict[str, Any]:
        """Entries of one shard ``_index.json`` (mtime/size cached)."""
        try:
            stat = index_path.stat()
        except OSError:
            self._shard_index_cache.pop(index_path, None)
            return {}
        signature = (stat.st_mtime_ns, stat.st_size)
        cached = self._shard_index_cache.get(index_path)
        if cached is not None and cached[0] == signature:
            return cached[1]
        try:
            entries = json.loads(index_path.read_text()).get("entries", {})
        except (OSError, json.JSONDecodeError, AttributeError):
            entries = {}
        self._shard_index_cache[index_path] = (signature, entries)
        return entries

    def _refresh_locations(self) -> None:
        """Rebuild the name -> path map from every shard's index."""
        root = self.directory / self.SHARD_DIR
        locations: Dict[str, Path] = {}
        if root.is_dir():
            for index_path in sorted(root.glob("*/_index.json")):
                shard_dir = index_path.parent
                for name in self._read_shard_index(index_path):
                    locations[name] = shard_dir / f"{name}.json"
        self._locations = locations

    def _update_shard_index(
        self, shard_dir: Path, name: str, envelope: Dict[str, Any], path: Path
    ) -> None:
        """Record ``name`` in its shard's ``_index.json`` (atomic rewrite)."""
        index_path = shard_dir / "_index.json"
        entries = dict(self._read_shard_index(index_path))
        stat = path.stat()
        integrity = envelope.get("integrity")
        entries[name] = {
            "kind": envelope["kind"],
            "spec_hash": spec_hash(envelope["spec"]),
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            # Mirror of the envelope's content digest (None when a damaged
            # envelope lost it): fsck cross-checks index against file.
            "sha256": integrity.get("digest") if isinstance(integrity, dict) else None,
        }
        tmp = index_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION, "entries": entries}, indent=2)
        )
        os.replace(tmp, index_path)
        stat = index_path.stat()
        self._shard_index_cache[index_path] = ((stat.st_mtime_ns, stat.st_size), entries)

    # -- store API -----------------------------------------------------
    def save(self, name: str, result: ExperimentResult) -> Path:
        """Persist ``result`` into its spec-hash shard and index it.

        A legacy flat file of the same name is removed — the sharded copy
        supersedes it, keeping :meth:`names` duplicate-free.
        """
        envelope = self._encode_envelope(result)
        shard_dir = self.directory / self.SHARD_DIR / self.shard_prefix(envelope["spec"])
        shard_dir.mkdir(parents=True, exist_ok=True)
        path = shard_dir / f"{name}.json"
        _atomic_write_text(
            path, json.dumps(envelope, indent=2, default=float, allow_nan=False)
        )
        flat = self.directory / f"{name}.json"
        if flat.is_file():
            flat.unlink()
            self._index.pop(flat, None)
        self._update_shard_index(shard_dir, name, envelope, path)
        self._locations[name] = path
        return path

    def load(self, name: str) -> ExperimentResult:
        """Load ``name``, parsing sharded files without retaining them.

        Flat legacy files go through the base class (and its envelope
        cache); sharded files are parsed on demand and *not* cached, so a
        full-store aggregation pass needs memory for one result at a time.
        """
        path = self.path_for(name)
        if path.parent == self.directory:
            return super().load(name)
        envelope = json.loads(path.read_text())
        self.files_parsed += 1
        return self._decode_envelope(path, envelope)

    def names(self) -> List[str]:
        """All result names: shard-index entries plus legacy flat files.

        The shard contribution costs one (cached) index read per shard —
        result files themselves are neither stat-ed nor parsed.
        """
        self._refresh_locations()
        return sorted(set(super().names()) | set(self._locations))

    def migrate(self) -> List[str]:
        """Move every legacy flat result file into the sharded layout.

        Returns the migrated names.  Each file moves with ``os.replace``,
        bytes unchanged, so a half-completed migration leaves every result
        in exactly one readable place and a rerun finishes the job.
        Re-running on an already-sharded store is a no-op (returns ``[]``).
        """
        moved = []
        for name in ResultStore.names(self):
            flat = self.directory / f"{name}.json"
            envelope = self._envelope_for(flat)
            if envelope is None:  # pragma: no cover - raced deletion
                continue
            shard_dir = self.directory / self.SHARD_DIR / self.shard_prefix(envelope["spec"])
            shard_dir.mkdir(parents=True, exist_ok=True)
            target = shard_dir / f"{name}.json"
            os.replace(flat, target)
            self._index.pop(flat, None)
            self._update_shard_index(shard_dir, name, envelope, target)
            self._locations[name] = target
            moved.append(name)
        return moved


def open_store(
    directory: PathLike, sharded: Union[bool, None] = None, verify: bool = True
) -> ResultStore:
    """Open the right store flavour for ``directory``.

    Auto-detects by layout: a ``shards/`` subdirectory means
    :class:`ShardedResultStore`, anything else the flat
    :class:`ResultStore`.  Pass ``sharded=True``/``False`` to force a
    flavour (e.g. when creating a new sharded store, or before running
    :meth:`ShardedResultStore.migrate` on a flat tree).  ``verify`` is
    forwarded to the store (checksum verification on load, default on).
    """
    root = Path(directory)
    if sharded is None:
        sharded = (root / ShardedResultStore.SHARD_DIR).is_dir()
    return ShardedResultStore(root, verify=verify) if sharded else ResultStore(root, verify=verify)
