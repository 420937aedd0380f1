"""Content-addressed artifact store for runtime job results.

The evaluation grid is highly redundant across invocations: rerunning Table 1
after a code-free change, rendering Fig. 5 for the sizes Table 1 already
solved, or re-entering a sweep with an extended grid all repeat jobs that were
already computed.  The cache stores each job's results under its content hash
(:attr:`repro.runtime.jobs.SolveJob.job_hash`) so those repeats are disk reads
instead of simulations.

Layout: ``<root>/<hash[:2]>/<hash>.json`` — two-level sharding keeps
directories small on large sweeps.  Entries are JSON envelopes carrying the
cache schema version, the job description, an **integrity hash** (SHA-256 of
the canonical payload JSON) and the results serialized via
:mod:`repro.analysis.results_io`.  *Any* failure to read an entry — missing
file, corrupt JSON, an envelope/results schema mismatch, an integrity
mismatch — is treated as a miss and the entry is rewritten after
recomputation, so format evolution and on-disk corruption both invalidate
entries cleanly instead of erroring.

Beyond load/store, the store is a first-class *artifact store* for fleet
execution:

* :meth:`ResultCache.stats` / :meth:`ResultCache.verify` /
  :meth:`ResultCache.gc` — inventory, an integrity sweep that reports (and
  optionally prunes) corrupt entries, and garbage collection of
  schema-stale/corrupt/unreferenced entries (``msropm cache stats|verify|gc``).
* :meth:`ResultCache.export_bundle` / :meth:`ResultCache.import_bundle` —
  portable tar bundles (envelopes + manifest) so fleet members merge caches:
  a worker exports what it computed, any other host imports it, and every
  imported envelope is integrity-verified before installation.

Besides job results the store keeps arbitrary small JSON *payloads* under
``<root>/<kind>/<hash[:2]>/<hash>.json`` (:meth:`ResultCache.load_payload` /
:meth:`ResultCache.store_payload`) with the same atomicity, integrity and
miss-on-any-failure semantics.  The workload zoo keeps its reference
solutions there (``kind="reference"``, keyed by the graph-spec content hash).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import tarfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Union

from repro.exceptions import ReproError
from repro.obs.metrics import get_metrics
from repro.runtime.atomic import atomic_output, write_atomic_json
from repro.runtime.jobs import Job, canonical_json

#: Version of the cache envelope.  Bump on envelope layout changes; old
#: entries then read as misses and are recomputed.
#:
#: History: 1 — SolveJob-only entries.  2 — polymorphic job entries (the
#: envelope's ``job`` description carries ``job_kind``, and the payload is
#: whatever the job type serializes).  3 — artifact-store envelopes: every
#: entry carries an ``integrity`` SHA-256 of its canonical payload JSON, so
#: corruption is detected on load, verified by ``msropm cache verify``, and
#: checked again when importing bundles from other hosts.
CACHE_SCHEMA_VERSION = 3

#: Version of the export-bundle manifest layout.
BUNDLE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "MSROPM_CACHE_DIR"

#: Two lowercase hex characters: the shard directories of job entries.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")

#: A full SHA-256 hex digest: the stem of every entry file.
_HASH_RE = re.compile(r"^[0-9a-f]{64}$")


def default_cache_dir() -> Path:
    """The default on-disk cache location (``$MSROPM_CACHE_DIR`` overrides)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "msropm"


def integrity_hash(payload: Any) -> str:
    """SHA-256 of a payload's canonical JSON form (the envelope checksum)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheEntryInfo:
    """One scanned entry: where it lives, what it is, and whether it is sound.

    ``status`` is one of ``ok`` (schema-current, integrity verified),
    ``stale`` (readable but written under an older schema — a format bump
    already invalidates these as misses) or ``corrupt`` (unreadable JSON,
    a key/filename mismatch, or an integrity-hash mismatch).
    """

    path: Path
    kind: str  # "result" for job entries, else the payload namespace
    key: str  # the content hash the entry claims to store
    size: int
    status: str
    detail: str = ""


class ResultCache:
    """Content-addressed artifact store of job result payloads.

    Entries are keyed by :attr:`repro.runtime.jobs.Job.job_hash` and store the
    job's own serialized payload form (what ``job.execute`` returned), so
    every job type — MSROPM solves, baseline runs — shares one store with
    uniform atomicity, integrity, invalidation and miss semantics.

    Parameters
    ----------
    root:
        Directory holding the cache (created on first store).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Misses where an entry *existed* on disk but was rejected — corrupt
        #: JSON, an envelope or results schema mismatch, a failed integrity
        #: check, failed validation.  These are the entries a format bump (or
        #: a tier change folded into the job hash) silently invalidates;
        #: runners surface the count so users understand why a warm cache
        #: recomputed.
        self.stale_misses = 0
        self.stores = 0
        self.payload_hits = 0
        self.payload_misses = 0
        self.payload_stores = 0

    # ------------------------------------------------------------------
    def path_for(self, job_hash: str) -> Path:
        """The entry path for a job hash (two-level hash sharding)."""
        return self.root / job_hash[:2] / f"{job_hash}.json"

    def load(self, job: Job) -> Optional[Any]:
        """Return the cached, decoded result for ``job``, or ``None`` on miss.

        Unreadable, schema-mismatched and integrity-failed entries count as
        misses by design: they will be overwritten by the recomputed result.
        The job itself decodes and validates the stored payload, so a partial
        or foreign entry under our key (``job.validate`` fails) also reads as
        a miss.
        """
        if not job.cacheable:
            return None
        path = self.path_for(job.job_hash)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            # No entry on disk: the ordinary cold miss.
            self.misses += 1
            get_metrics().inc("cache.misses")
            return None
        try:
            envelope = json.loads(text)
            if (
                not isinstance(envelope, dict)
                or envelope.get("cache_schema") != CACHE_SCHEMA_VERSION
                or envelope.get("job_hash") != job.job_hash
                or envelope.get("integrity") != integrity_hash(envelope.get("result"))
            ):
                raise ReproError("cache envelope mismatch")
            result = job.decode(envelope["result"])
            if not job.validate(result):
                raise ReproError("cache entry fails job validation")
        except (OSError, ValueError, KeyError, TypeError, IndexError, ReproError):
            # An entry existed but could not be used: a *stale* miss.  It will
            # be overwritten by the recomputed result.
            self.misses += 1
            self.stale_misses += 1
            metrics = get_metrics()
            metrics.inc("cache.misses")
            metrics.inc("cache.stale_misses")
            return None
        self.hits += 1
        get_metrics().inc("cache.hits")
        return result

    def load_envelope(self, job_hash: str) -> Optional[Dict]:
        """Return the raw, integrity-verified envelope stored under a hash.

        This is the fetch path for callers that hold only a content hash and
        no :class:`~repro.runtime.jobs.Job` object — a restarted service
        answering a fetch for a ticket issued by a previous process.  The
        envelope's ``result`` member is the job's persisted payload form,
        exactly what the job stored.  Hit/miss counters are *not* touched:
        this is an artifact read, not an execution-path cache probe.
        """
        if not _HASH_RE.match(job_hash):
            return None
        path = self.path_for(job_hash)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if (
                not isinstance(envelope, dict)
                or envelope.get("cache_schema") != CACHE_SCHEMA_VERSION
                or envelope.get("job_hash") != job_hash
                or envelope.get("integrity") != integrity_hash(envelope.get("result"))
            ):
                return None
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return envelope

    def store(self, job: Job, payload: Dict) -> None:
        """Persist ``payload``, the job's serialized result (what
        ``job.execute`` returned), for ``job`` (atomic write, last writer
        wins).  The payload is stored as given, so a computed result is
        encoded exactly once, by its worker."""
        if not job.cacheable:
            return
        envelope = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "job_hash": job.job_hash,
            "job": job.describe(),
            "integrity": integrity_hash(payload),
            "result": payload,
        }
        self._write_atomic(self.path_for(job.job_hash), envelope)
        self.stores += 1
        get_metrics().inc("cache.stores")

    # ------------------------------------------------------------------
    # Generic JSON payloads (reference solutions and similar derived data)
    # ------------------------------------------------------------------
    def payload_path(self, kind: str, key_hash: str) -> Path:
        """The entry path of a ``kind`` payload (own namespace, hash-sharded)."""
        return self.root / kind / key_hash[:2] / f"{key_hash}.json"

    def load_payload(self, kind: str, key_hash: str) -> Optional[Dict]:
        """Return the cached ``kind`` payload for ``key_hash``, or ``None``.

        Same semantics as :meth:`load`: any unreadable, schema-mismatched or
        integrity-failed entry counts as a miss and is overwritten on the
        next store.
        """
        path = self.payload_path(kind, key_hash)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if (
                not isinstance(envelope, dict)
                or envelope.get("cache_schema") != CACHE_SCHEMA_VERSION
                or envelope.get("kind") != kind
                or envelope.get("key") != key_hash
                or not isinstance(envelope.get("payload"), dict)
                or envelope.get("integrity") != integrity_hash(envelope.get("payload"))
            ):
                raise ReproError("payload envelope mismatch")
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            self.payload_misses += 1
            return None
        self.payload_hits += 1
        return envelope["payload"]

    def store_payload(self, kind: str, key_hash: str, payload: Dict) -> None:
        """Persist a ``kind`` payload under ``key_hash`` (atomic write)."""
        envelope = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "key": key_hash,
            "integrity": integrity_hash(payload),
            "payload": payload,
        }
        self._write_atomic(self.payload_path(kind, key_hash), envelope)
        self.payload_stores += 1

    # ------------------------------------------------------------------
    # Artifact-store maintenance: scan, stats, verify, gc
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[CacheEntryInfo]:
        """Classify every entry file under the root (job results + payloads).

        Non-entry files (campaign ledgers, spool state, stray temp files) are
        skipped: only ``<2-hex>/<64-hex>.json`` job entries and
        ``<kind>/<2-hex>/<64-hex>.json`` payload entries are the store's.
        """
        if not self.root.is_dir():
            return
        for top in sorted(self.root.iterdir()):
            if not top.is_dir():
                continue
            if _SHARD_RE.match(top.name):
                yield from self._scan_shard(top, kind="result")
            else:
                for shard in sorted(top.iterdir()):
                    if shard.is_dir() and _SHARD_RE.match(shard.name):
                        yield from self._scan_shard(shard, kind=top.name)

    def _scan_shard(self, shard: Path, kind: str) -> Iterator[CacheEntryInfo]:
        for path in sorted(shard.glob("*.json")):
            if not _HASH_RE.match(path.stem) or path.stem[:2] != shard.name:
                continue
            yield self._inspect(path, kind)

    def _inspect(self, path: Path, kind: str) -> CacheEntryInfo:
        """Classify one entry file (the verify sweep's unit of work)."""
        key = path.stem
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(envelope, dict):
                raise ValueError("envelope is not an object")
        except (OSError, ValueError):
            return CacheEntryInfo(path, kind, key, size, "corrupt", "unreadable JSON")
        schema = envelope.get("cache_schema")
        if kind == "result":
            claimed, body = envelope.get("job_hash"), envelope.get("result")
        else:
            claimed, body = envelope.get("key"), envelope.get("payload")
            if envelope.get("kind") != kind:
                return CacheEntryInfo(
                    path, kind, key, size, "corrupt", "payload kind mismatch"
                )
        if claimed != key:
            return CacheEntryInfo(path, kind, key, size, "corrupt", "key/filename mismatch")
        if not isinstance(schema, int) or schema > CACHE_SCHEMA_VERSION:
            return CacheEntryInfo(path, kind, key, size, "corrupt", "unknown schema")
        if schema < CACHE_SCHEMA_VERSION:
            return CacheEntryInfo(path, kind, key, size, "stale", f"schema {schema}")
        if envelope.get("integrity") != integrity_hash(body):
            return CacheEntryInfo(path, kind, key, size, "corrupt", "integrity mismatch")
        return CacheEntryInfo(path, kind, key, size, "ok")

    def stats(self) -> Dict[str, Any]:
        """Inventory: entry counts and bytes, total and per namespace."""
        by_kind: Dict[str, Dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        for info in self.scan():
            bucket = by_kind.setdefault(info.kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += info.size
            total_entries += 1
            total_bytes += info.size
        return {
            "root": str(self.root),
            "cache_schema": CACHE_SCHEMA_VERSION,
            "entries": total_entries,
            "bytes": total_bytes,
            "kinds": by_kind,
        }

    def verify(self, prune: bool = False) -> Dict[str, Any]:
        """Integrity sweep: re-hash every envelope and report the unsound ones.

        Returns counters plus the paths of corrupt entries; with ``prune``
        the corrupt entries are deleted (stale ones are left for :meth:`gc` —
        they are already treated as misses and may still be wanted for
        forensics).
        """
        ok = stale = corrupt = pruned = 0
        corrupt_entries: List[Dict[str, str]] = []
        for info in self.scan():
            if info.status == "ok":
                ok += 1
            elif info.status == "stale":
                stale += 1
            else:
                corrupt += 1
                corrupt_entries.append(
                    {"path": str(info.path), "kind": info.kind, "detail": info.detail}
                )
                if prune:
                    info.path.unlink(missing_ok=True)
                    pruned += 1
        return {
            "ok": ok,
            "stale": stale,
            "corrupt": corrupt,
            "pruned": pruned,
            "corrupt_entries": corrupt_entries,
        }

    def gc(self, referenced: Optional[Iterable[str]] = None) -> Dict[str, int]:
        """Sweep unusable entries; optionally also everything unreferenced.

        Always removes schema-stale and corrupt entries (both already read as
        misses, so this only reclaims disk).  When ``referenced`` is given —
        e.g. the union of job hashes recorded by campaign ledgers — sound
        *job* entries whose hash is not in the set are removed too; payload
        namespaces (reference solutions) are never GC'd by reference, as
        nothing records references to them.  Emptied shard directories are
        pruned best-effort.
        """
        keep: Optional[Set[str]] = None if referenced is None else set(referenced)
        removed = {"stale": 0, "corrupt": 0, "unreferenced": 0, "kept": 0}
        for info in self.scan():
            if info.status == "stale":
                info.path.unlink(missing_ok=True)
                removed["stale"] += 1
            elif info.status == "corrupt":
                info.path.unlink(missing_ok=True)
                removed["corrupt"] += 1
            elif keep is not None and info.kind == "result" and info.key not in keep:
                info.path.unlink(missing_ok=True)
                removed["unreferenced"] += 1
            else:
                removed["kept"] += 1
        self._prune_empty_shards()
        return removed

    def _prune_empty_shards(self) -> None:
        """Drop emptied hash-shard directories (cosmetic, best-effort).

        Only directories matching the store's own layout are touched —
        foreign residents of the cache root (campaign ledgers, a job spool)
        are never candidates.
        """
        if not self.root.is_dir():
            return
        for top in list(self.root.iterdir()):
            if not top.is_dir():
                continue
            store_owned = bool(_SHARD_RE.match(top.name))
            if not store_owned:
                for shard in list(top.iterdir()):
                    if shard.is_dir() and _SHARD_RE.match(shard.name):
                        store_owned = True
                        try:
                            shard.rmdir()
                        except OSError:
                            pass
            if store_owned:
                try:
                    top.rmdir()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Bundles: export/import so fleet members merge caches
    # ------------------------------------------------------------------
    def export_bundle(
        self,
        bundle_path: Union[str, Path],
        job_hashes: Optional[Iterable[str]] = None,
        include_payloads: bool = True,
    ) -> Dict[str, Any]:
        """Write a portable result bundle (gzipped tar of envelopes + manifest).

        Only ``ok`` entries are exported — the bundle is a transport of
        *verified* artifacts, so stale and corrupt entries are skipped and
        counted.  ``job_hashes`` restricts the export to a subset (e.g. one
        campaign's jobs); payload namespaces ride along unless disabled.
        Returns the manifest.
        """
        wanted: Optional[Set[str]] = None if job_hashes is None else set(job_hashes)
        manifest: Dict[str, Any] = {
            "bundle_schema": BUNDLE_SCHEMA_VERSION,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "entries": [],
            "payloads": [],
            "skipped_unsound": 0,
        }
        bundle_path = Path(bundle_path)
        # The bundle is published atomically: an interrupted export leaves the
        # previous bundle (or nothing) in place, never a truncated tarball.
        with atomic_output(bundle_path) as temp_path:
            # repro-lint: disable=atomic-write -- the tar is written to
            # atomic_output's temp path and published by its rename.
            with tarfile.open(temp_path, "w:gz") as tar:
                for info in self.scan():
                    if info.kind == "result":
                        if wanted is not None and info.key not in wanted:
                            continue
                    elif not include_payloads:
                        continue
                    if info.status != "ok":
                        manifest["skipped_unsound"] += 1
                        continue
                    if info.kind == "result":
                        member = f"entries/{info.key[:2]}/{info.key}.json"
                        manifest["entries"].append(info.key)
                    else:
                        member = f"payloads/{info.kind}/{info.key[:2]}/{info.key}.json"
                        manifest["payloads"].append({"kind": info.kind, "key": info.key})
                    tar.add(info.path, arcname=member)
                manifest_bytes = json.dumps(manifest, indent=2).encode("utf-8")
                member_info = tarfile.TarInfo("manifest.json")
                member_info.size = len(manifest_bytes)
                tar.addfile(member_info, io.BytesIO(manifest_bytes))
        return manifest

    def import_bundle(self, bundle_path: Union[str, Path]) -> Dict[str, int]:
        """Merge a bundle exported elsewhere into this store.

        Every member is parsed and integrity-verified *before* installation —
        a tampered or truncated bundle contributes nothing — and installation
        paths are derived from the verified envelope contents, never from
        archive member names, so a malicious bundle cannot traverse outside
        the store.  Existing entries are kept (results are content-addressed;
        identical keys hold identical payloads).  Returns counters.
        """
        counters = {"imported": 0, "existing": 0, "rejected": 0}
        with tarfile.open(bundle_path, "r:*") as tar:
            for member in tar:
                if not member.isfile() or member.name == "manifest.json":
                    continue
                handle = tar.extractfile(member)
                if handle is None:
                    counters["rejected"] += 1
                    continue
                try:
                    envelope = json.loads(handle.read().decode("utf-8"))
                    if not isinstance(envelope, dict):
                        raise ValueError("not an object")
                except (OSError, ValueError):
                    counters["rejected"] += 1
                    continue
                target = self._install_target(envelope)
                if target is None:
                    counters["rejected"] += 1
                    continue
                if target.exists():
                    counters["existing"] += 1
                    continue
                self._write_atomic(target, envelope)
                counters["imported"] += 1
        return counters

    def _install_target(self, envelope: Dict) -> Optional[Path]:
        """Verified install path for an imported envelope (``None`` = reject)."""
        if envelope.get("cache_schema") != CACHE_SCHEMA_VERSION:
            return None
        if "job_hash" in envelope:
            key = envelope.get("job_hash")
            if (
                not isinstance(key, str)
                or not _HASH_RE.match(key)
                or envelope.get("integrity") != integrity_hash(envelope.get("result"))
            ):
                return None
            return self.path_for(key)
        kind, key = envelope.get("kind"), envelope.get("key")
        if (
            not isinstance(kind, str)
            or not isinstance(key, str)
            or not _HASH_RE.match(key)
            or _SHARD_RE.match(kind)  # a payload kind must not shadow a shard
            or not re.match(r"^[A-Za-z0-9_.-]+$", kind)
            or kind in (".", "..")
            or envelope.get("integrity") != integrity_hash(envelope.get("payload"))
        ):
            return None
        return self.payload_path(kind, key)

    # ------------------------------------------------------------------
    def _write_atomic(self, path: Path, envelope: Dict) -> None:
        """Write-to-temp + rename so concurrent runners never observe a torn
        entry; os.replace is atomic within one filesystem."""
        write_atomic_json(path, envelope)
