"""The artifact store's entry layout: round trips, fault injection, bundles.

Each entry is the canonical JSON of its envelope, and a reader checks the
integrity hash over the payload's bytes as stored.  These tests pin the
properties that layout promises:

* any JSON-native payload round-trips through ``store``/``load`` and
  ``store_payload``/``load_payload``;
* changing or cutting any byte of an entry makes it a stale miss that
  ``verify`` reports (corrupt, or stale where the change rewrote the schema
  number to an older one);
* ``export_bundle`` -> ``import_bundle`` installs byte-identical files;
* a hit never serializes its payload;
* a payload that is not plain JSON is refused, and no file is left behind;
* an entry of the previous schema reads as a stale miss, not as corruption.
"""

from __future__ import annotations

import gzip
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cache_envelopes import write_envelope
from repro.runtime.cache import CACHE_SCHEMA_VERSION, ResultCache, integrity_hash
from repro.runtime.jobs import Job, canonical_json

KIND = "reference"

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)
PAYLOADS = st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=5)


@dataclass(frozen=True)
class EchoJob(Job):
    """A cacheable job whose payload is a stored value, decoded as itself."""

    token: int

    job_kind = "test-echo"

    @property
    def cacheable(self) -> bool:
        return True

    def describe(self):
        return {"job_kind": self.job_kind, "token": self.token}

    @property
    def label(self) -> str:
        return f"echo-{self.token}"

    def execute(self):
        return {"token": self.token}

    def decode(self, payload):
        return payload


def _payload_key(payload) -> str:
    return integrity_hash({"key-of": payload})


# ----------------------------------------------------------------------
# Round trips and layout
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(payload=PAYLOADS, token=st.integers(0, 10**6))
def test_any_json_payload_round_trips(payload, token):
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        job = EchoJob(token)
        cache.store(job, payload)
        result, stored = cache.load(job)
        assert result == payload and stored == payload
        assert cache.hits == 1 and cache.stale_misses == 0

        key = _payload_key(payload)
        cache.store_payload(KIND, key, payload)
        assert cache.load_payload(KIND, key) == payload
        assert cache.payload_hits == 1

        # Both entries are their envelope's canonical JSON, and the integrity
        # hash is that of the payload's canonical JSON.
        for path, body_key in ((cache.path_for(job.job_hash), "result"),
                               (cache.payload_path(KIND, key), "payload")):
            data = path.read_bytes()
            envelope = json.loads(data)
            assert data == canonical_json(envelope).encode("utf-8")
            assert envelope["integrity"] == integrity_hash(payload)
            assert list(envelope)[-1] == body_key
        assert cache.verify()["ok"] == 2


def test_load_envelope_returns_the_stored_envelope(tmp_path):
    cache = ResultCache(tmp_path)
    job = EchoJob(1)
    cache.store(job, {"value": [1, 2.5, "x"]})
    envelope = cache.load_envelope(job.job_hash)
    assert envelope == json.loads(cache.path_for(job.job_hash).read_bytes())
    assert envelope["result"] == {"value": [1, 2.5, "x"]}
    assert cache.load_envelope("not-a-hash") is None
    assert cache.load_envelope("ab" * 32) is None


# ----------------------------------------------------------------------
# Fault injection: every changed or missing byte is caught
# ----------------------------------------------------------------------
def _entry(root: Path, layout: str):
    """Store one entry; return ``(cache, path, probe)``, ``probe()`` a load."""
    cache = ResultCache(root)
    payload = {"colors": [0, 1, 2, 3], "accuracy": 0.96875, "name": "kings-7x7"}
    if layout == "result":
        job = EchoJob(7)
        cache.store(job, payload)
        return cache, cache.path_for(job.job_hash), lambda: cache.load(job)
    key = _payload_key(payload)
    cache.store_payload(KIND, key, payload)
    return cache, cache.payload_path(KIND, key), lambda: cache.load_payload(KIND, key)


def _assert_unusable(cache: ResultCache, probe, data: bytes, schema_at: int, index: int):
    assert probe() is None
    assert cache.stale_misses + cache.payload_misses == 1
    [info] = list(cache.scan())
    if index == schema_at and data[index] - ord("0") in range(CACHE_SCHEMA_VERSION):
        # The change rewrote the schema number to an older one: such an
        # entry is stale by definition, and gc sweeps it like a corrupt one.
        assert (info.status, info.detail) == ("stale", f"schema {chr(data[index])}")
    else:
        assert info.status == "corrupt", info.detail
        assert cache.verify()["corrupt"] == 1


@pytest.mark.parametrize("layout", ["result", "payload"])
@settings(max_examples=150, deadline=None)
@given(choice=st.data())
def test_any_changed_byte_is_a_stale_miss(layout, choice):
    with tempfile.TemporaryDirectory() as root:
        cache, path, probe = _entry(Path(root), layout)
        original = path.read_bytes()
        schema_at = original.index(b'"cache_schema":') + len(b'"cache_schema":')
        index = choice.draw(st.integers(0, len(original) - 1), label="index")
        byte = choice.draw(
            st.integers(0, 255).filter(lambda value: value != original[index]), label="byte"
        )
        data = original[:index] + bytes([byte]) + original[index + 1:]
        path.write_bytes(data)
        _assert_unusable(cache, probe, data, schema_at, index)


@pytest.mark.parametrize("layout", ["result", "payload"])
def test_every_truncation_is_a_stale_miss(tmp_path, layout):
    cache, path, probe = _entry(tmp_path, layout)
    original = path.read_bytes()
    for length in range(len(original)):
        path.write_bytes(original[:length])
        cache.stale_misses = cache.payload_misses = 0
        _assert_unusable(cache, probe, original[:length], -1, length)


@pytest.mark.parametrize("layout", ["result", "payload"])
def test_non_canonical_entry_is_an_integrity_mismatch(tmp_path, layout):
    """The same envelope re-serialized with other spacing is not accepted."""
    cache, path, probe = _entry(tmp_path, layout)
    path.write_text(json.dumps(json.loads(path.read_bytes())), encoding="utf-8")
    assert probe() is None
    [info] = list(cache.scan())
    assert (info.status, info.detail) == ("corrupt", "integrity mismatch")


def test_previous_schema_entry_is_stale_not_corrupt(tmp_path):
    """An entry in the previous layout (``json.dumps`` defaults) is stale."""
    cache = ResultCache(tmp_path)
    job = EchoJob(3)
    payload = {"sum": 3}
    path = cache.path_for(job.job_hash)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({
        "cache_schema": CACHE_SCHEMA_VERSION - 1,
        "job_hash": job.job_hash,
        "job": job.describe(),
        "integrity": integrity_hash(payload),
        "result": payload,
    }), encoding="utf-8")
    assert cache.load(job) is None and cache.stale_misses == 1
    report = cache.verify()
    assert (report["stale"], report["corrupt"]) == (1, 0)


def test_job_description_must_hash_to_the_key(tmp_path):
    cache = ResultCache(tmp_path)
    job = EchoJob(4)
    cache.store(job, {"sum": 4})
    envelope = json.loads(cache.path_for(job.job_hash).read_bytes())
    envelope["job"]["token"] = 5  # the payload's hash still matches
    write_envelope(cache.path_for(job.job_hash), envelope)
    assert cache.load(job) is None
    [info] = list(cache.scan())
    assert (info.status, info.detail) == ("corrupt", "job description mismatch")


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(payloads=st.lists(PAYLOADS, min_size=1, max_size=3))
def test_bundle_round_trip_installs_identical_bytes(payloads):
    with tempfile.TemporaryDirectory() as root:
        source = ResultCache(Path(root) / "source")
        for token, payload in enumerate(payloads):
            source.store(EchoJob(token), payload)
            source.store_payload(KIND, _payload_key([token, payload]), payload)
        bundle = Path(root) / "bundle.tar.gz"
        source.export_bundle(bundle)
        target = ResultCache(Path(root) / "target")
        counters = target.import_bundle(bundle)
        assert counters == {"imported": 2 * len(payloads), "existing": 0, "rejected": 0}
        installed = {info.path.relative_to(target.root): info.path.read_bytes()
                     for info in target.scan()}
        assert installed == {info.path.relative_to(source.root): info.path.read_bytes()
                             for info in source.scan()}
        assert target.verify()["ok"] == 2 * len(payloads)


def test_bundle_member_that_fails_to_read_is_rejected(tmp_path):
    """A member whose gzip CRC fails mid-read counts as rejected and ends the
    import without a traceback; members read before it stay installed."""
    source = ResultCache(tmp_path / "source")
    large = {"blob": "ab" * 300_000}  # spans the split below
    source.store_payload(KIND, _payload_key(large), large)
    source.store(EchoJob(1), {"sum": 1})
    bundle = tmp_path / "bundle.tar.gz"
    source.export_bundle(bundle)
    # Recompress as two gzip members split inside the large entry, and break
    # the first member's CRC: reading that entry raises gzip.BadGzipFile.
    tar_bytes = gzip.decompress(bundle.read_bytes())
    split = tar_bytes.index(b'"blob":"') + 300_000
    first = bytearray(gzip.compress(tar_bytes[:split]))
    first[-8] ^= 0xFF
    bundle.write_bytes(bytes(first) + gzip.compress(tar_bytes[split:]))
    target = ResultCache(tmp_path / "target")
    counters = target.import_bundle(bundle)
    assert counters == {"imported": 1, "existing": 0, "rejected": 1}
    assert target.load(EchoJob(1))[0] == {"sum": 1}
    assert target.load_payload(KIND, _payload_key(large)) is None


# ----------------------------------------------------------------------
# A hit never re-encodes its payload; non-JSON payloads are refused
# ----------------------------------------------------------------------
def test_a_hit_never_serializes_its_payload(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    job = EchoJob(9)
    payload = {"marker": "never-re-encoded", "values": list(range(40))}
    key = _payload_key(payload)
    cache.store(job, payload)
    cache.store_payload(KIND, key, payload)
    body = canonical_json(payload)

    encoded = []
    original = json.JSONEncoder.encode

    def recording(self, obj):
        text = original(self, obj)
        encoded.append(text)
        return text

    monkeypatch.setattr(json.JSONEncoder, "encode", recording)
    assert cache.load(job)[1] == payload
    assert cache.load_envelope(job.job_hash)["result"] == payload
    assert cache.load_payload(KIND, key) == payload
    assert cache.verify()["ok"] == 2
    assert encoded, "the recorder saw no encoder call at all"
    assert not [text for text in encoded if body in text]


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"], ids=["object", "set", "bytes"])
def test_a_payload_that_is_not_json_is_refused(tmp_path, value):
    cache = ResultCache(tmp_path)
    job = EchoJob(11)
    with pytest.raises(TypeError):
        cache.store(job, {"value": value})
    with pytest.raises(TypeError):
        cache.store_payload(KIND, "ab" * 32, {"value": value})
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
    assert cache.stores == 0 and cache.payload_stores == 0
