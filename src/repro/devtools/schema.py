"""Schema-manifest extraction: the hash-relevant surfaces, fingerprinted.

The job hash is a SHA-256 of ``SolveJob.describe()``; the cache keys
envelopes by it and gates reuse on ``CACHE_SCHEMA_VERSION``; persisted
results are gated on ``FORMAT_VERSION``.  Changing any surface that feeds
those bytes — a hashed dataclass field, a ``describe()``/``fingerprint()``
key, the envelope layout, the results payload — without bumping the
governing version makes stale cache entries *collide* instead of miss.

This module computes, purely from the AST (the analyzed code is never
imported), a canonical manifest of every such surface:

* the three governing version constants,
* ``SolveJob``/``BaselineJob`` hashed fields and ``describe()`` keys,
* every ``GraphSpec`` subclass's fields and ``fingerprint()`` keys,
* ``MSROPMConfig`` members (folded into the hash via ``asdict``),
* the cache envelope layouts and the results payload keys.

The checked-in ``devtools/schema_manifest.json`` is the reviewed baseline;
the ``schema-manifest`` lint rule fails when HEAD's computed manifest
differs, and ``python -m repro.devtools regen-manifest`` refuses to
regenerate while a changed surface's governing version is unbumped.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Version of the manifest file layout itself.
MANIFEST_SCHEMA_VERSION = 1

#: Repo-relative path of the checked-in manifest.
MANIFEST_PATH = "src/repro/devtools/schema_manifest.json"

#: Repo-relative sources each surface is extracted from.
SOURCES = {
    "jobs": "src/repro/runtime/jobs.py",
    "baselines": "src/repro/runtime/baselines.py",
    "config": "src/repro/core/config.py",
    "cache": "src/repro/runtime/cache.py",
    "results_io": "src/repro/analysis/results_io.py",
    "ledger": "src/repro/campaigns/ledger.py",
}


class SchemaExtractionError(RuntimeError):
    """A surface this module fingerprints could not be located."""


# ----------------------------------------------------------------------
# AST extraction primitives.

def _find_class(tree: ast.Module, name: str, relpath: str) -> ast.ClassDef:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise SchemaExtractionError(f"class {name} not found in {relpath}")


def _find_method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _int_constant(tree: ast.Module, name: str, relpath: str) -> int:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            return node.value.value
    raise SchemaExtractionError(f"constant {name} not found in {relpath}")


def _literal_assignment(tree: ast.Module, name: str, relpath: str) -> Any:
    """Evaluate a module-level pure-literal assignment (dicts of tuples etc.).

    The assigned expression must be a Python literal — which is exactly the
    constraint that makes it extractable without importing the module, and
    why :data:`LEDGER_EVENT_SHAPES` is declared as one.
    """
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
        ):
            try:
                return ast.literal_eval(node.value)
            except ValueError as exc:
                raise SchemaExtractionError(
                    f"{name} in {relpath} is not a pure literal: {exc}"
                ) from exc
    raise SchemaExtractionError(f"assignment {name} not found in {relpath}")


def _annotated_fields(cls: ast.ClassDef) -> List[str]:
    """Annotated class-body names, i.e. the dataclass fields, in order."""
    fields: List[str] = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = ast.unparse(node.annotation)
            if "ClassVar" in annotation:
                continue
            fields.append(node.target.id)
    return fields


def _dict_keys(node: ast.AST) -> List[str]:
    """Every constant-string dict-literal key anywhere inside ``node``."""
    keys: List[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Dict):
            for key in child.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.append(key.value)
    return sorted(set(keys))


def _method_dict_keys(cls: ast.ClassDef, method: str, relpath: str) -> List[str]:
    func = _find_method(cls, method)
    if func is None:
        raise SchemaExtractionError(f"{cls.name}.{method} not found in {relpath}")
    return _dict_keys(func)


def _graph_spec_classes(tree: ast.Module) -> List[ast.ClassDef]:
    subclasses = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Name) and base.id == "GraphSpec" for base in node.bases
        ):
            subclasses.append(node)
    return subclasses


# ----------------------------------------------------------------------
# Manifest computation.

def compute_manifest(
    root: Path, overrides: Optional[Dict[str, str]] = None
) -> Dict[str, Any]:
    """The manifest of HEAD's hash-relevant surfaces.

    ``overrides`` maps repo-relative source paths to replacement source
    text — the unit-test hook for simulating a schema change without
    touching the working tree.
    """
    root = Path(root)
    overrides = overrides or {}

    trees: Dict[str, ast.Module] = {}
    for label, relpath in SOURCES.items():
        text = overrides.get(relpath)
        if text is None:
            text = (root / relpath).read_text(encoding="utf-8")
        trees[label] = ast.parse(text, filename=relpath)

    jobs, cache = trees["jobs"], trees["cache"]

    versions = {
        "JOB_SCHEMA_VERSION": _int_constant(jobs, "JOB_SCHEMA_VERSION", SOURCES["jobs"]),
        "CACHE_SCHEMA_VERSION": _int_constant(
            cache, "CACHE_SCHEMA_VERSION", SOURCES["cache"]
        ),
        "FORMAT_VERSION": _int_constant(
            trees["results_io"], "FORMAT_VERSION", SOURCES["results_io"]
        ),
        "LEDGER_SCHEMA_VERSION": _int_constant(
            trees["ledger"], "LEDGER_SCHEMA_VERSION", SOURCES["ledger"]
        ),
    }

    solve_job = _find_class(jobs, "SolveJob", SOURCES["jobs"])
    baseline_job = _find_class(trees["baselines"], "BaselineJob", SOURCES["baselines"])
    config_cls = _find_class(trees["config"], "MSROPMConfig", SOURCES["config"])
    cache_cls = _find_class(cache, "ResultCache", SOURCES["cache"])

    graph_specs: Dict[str, Any] = {}
    for cls in _graph_spec_classes(jobs):
        fingerprint = _find_method(cls, "fingerprint")
        graph_specs[cls.name] = {
            "fields": _annotated_fields(cls),
            "fingerprint_keys": _dict_keys(fingerprint) if fingerprint else [],
        }

    results_func = None
    for node in trees["results_io"].body:
        if isinstance(node, ast.FunctionDef) and node.name == "solve_result_to_dict":
            results_func = node
    if results_func is None:
        raise SchemaExtractionError(
            f"solve_result_to_dict not found in {SOURCES['results_io']}"
        )

    surfaces: Dict[str, Any] = {
        "solve_job": {
            "governed_by": "JOB_SCHEMA_VERSION",
            "source": SOURCES["jobs"],
            "fields": _annotated_fields(solve_job),
            "describe_keys": _method_dict_keys(solve_job, "describe", SOURCES["jobs"]),
        },
        "baseline_job": {
            "governed_by": "JOB_SCHEMA_VERSION",
            "source": SOURCES["baselines"],
            "fields": _annotated_fields(baseline_job),
            "describe_keys": _method_dict_keys(
                baseline_job, "describe", SOURCES["baselines"]
            ),
        },
        "graph_specs": {
            "governed_by": "JOB_SCHEMA_VERSION",
            "source": SOURCES["jobs"],
            "classes": graph_specs,
        },
        "msropm_config": {
            "governed_by": "JOB_SCHEMA_VERSION",
            "source": SOURCES["config"],
            "fields": _annotated_fields(config_cls),
        },
        "cache_envelope": {
            "governed_by": "CACHE_SCHEMA_VERSION",
            "source": SOURCES["cache"],
            "store_keys": _method_dict_keys(cache_cls, "store", SOURCES["cache"]),
            "payload_keys": _method_dict_keys(
                cache_cls, "store_payload", SOURCES["cache"]
            ),
        },
        "results_payload": {
            "governed_by": "FORMAT_VERSION",
            "source": SOURCES["results_io"],
            "keys": _dict_keys(results_func),
        },
        "ledger_events": {
            "governed_by": "LEDGER_SCHEMA_VERSION",
            "source": SOURCES["ledger"],
            # kind -> sorted field list; adding a kind or a field changes the
            # manifest and therefore demands a LEDGER_SCHEMA_VERSION bump.
            "event_shapes": {
                kind: sorted(fields)
                for kind, fields in _literal_assignment(
                    trees["ledger"], "LEDGER_EVENT_SHAPES", SOURCES["ledger"]
                ).items()
            },
        },
    }

    body = {"versions": versions, "surfaces": surfaces}
    fingerprint = hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return {
        "manifest_schema": MANIFEST_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        **body,
    }


# ----------------------------------------------------------------------
# Checked-in manifest I/O and diffing.

def manifest_path(root: Path) -> Path:
    return Path(root) / MANIFEST_PATH


def load_manifest(root: Path) -> Optional[Dict[str, Any]]:
    path = manifest_path(root)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def write_manifest(root: Path, manifest: Dict[str, Any]) -> Path:
    from repro.runtime.atomic import write_atomic_json

    path = manifest_path(root)
    write_atomic_json(path, manifest, indent=2)
    return path


def changed_surfaces(
    old: Dict[str, Any], new: Dict[str, Any]
) -> List[Tuple[str, str, bool]]:
    """``(surface, governing version, bumped?)`` for every changed surface."""
    old_surfaces = old.get("surfaces", {})
    new_surfaces = new.get("surfaces", {})
    old_versions = old.get("versions", {})
    new_versions = new.get("versions", {})
    changes: List[Tuple[str, str, bool]] = []
    for name in sorted(set(old_surfaces) | set(new_surfaces)):
        if old_surfaces.get(name) == new_surfaces.get(name):
            continue
        governed = (new_surfaces.get(name) or old_surfaces.get(name) or {}).get(
            "governed_by", "JOB_SCHEMA_VERSION"
        )
        bumped = old_versions.get(governed) != new_versions.get(governed)
        changes.append((name, governed, bumped))
    return changes


def unbumped_changes(
    old: Dict[str, Any], new: Dict[str, Any]
) -> List[Tuple[str, str]]:
    """Changed surfaces whose governing version was *not* bumped."""
    return [(s, v) for s, v, bumped in changed_surfaces(old, new) if not bumped]


def regenerate(root: Path, force: bool = False) -> Tuple[Path, Dict[str, Any]]:
    """Recompute and write the manifest, enforcing the bump discipline.

    Refuses (raises :class:`SchemaExtractionError`) when a hash-relevant
    surface changed but its governing version constant did not — regeneration
    must never be the tool that papers over a missing bump.  ``force``
    overrides, for intentional non-semantic refactors of a fingerprinted
    method.
    """
    new = compute_manifest(root)
    old = load_manifest(root)
    if old is not None and not force:
        missing = unbumped_changes(old, new)
        if missing:
            detail = ", ".join(f"{surface} (bump {version})" for surface, version in missing)
            raise SchemaExtractionError(
                "refusing to regenerate: hash-relevant surface(s) changed without "
                f"a version bump: {detail}. Bump the governing version(s), or pass "
                "--force for a provably non-semantic change."
            )
    return write_manifest(root, new), new
