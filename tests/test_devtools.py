"""Tests of the repro-lint static analyzer (src/repro/devtools/).

Two layers:

* a fixture corpus of minimal good/bad snippets per rule — every bad
  snippet must produce exactly its expected finding, every good snippet
  none — pinning each checker's detection power and its false-positive
  boundary;
* schema-manifest round-trips on a copied mini-repo proving the coupling
  discipline end to end: a hashed-field addition without a version bump
  fails lint and blocks ``regen-manifest``; with the bump, regeneration
  succeeds and lint returns to zero;
* an import-graph mini-repo pinning which modules the reachability rule
  counts as reached from the CLI.
"""

from __future__ import annotations

import ast
import json
import shutil
from pathlib import Path

import pytest

from repro.devtools import schema
from repro.devtools.analyzer import (
    Finding,
    LintConfig,
    ModuleSource,
    render_json,
    render_text,
    run_lint,
)
from repro.devtools.checkers.atomicity import AtomicityChecker
from repro.devtools.checkers.determinism import DeterminismChecker
from repro.devtools.checkers.hotpath import HotPathChecker
from repro.devtools.checkers.schema_coupling import SchemaCouplingChecker

REPO_ROOT = Path(__file__).resolve().parent.parent


def check(checker, source: str, relpath: str = "pkg/mod.py"):
    """Run one checker's module pass over a source snippet."""
    module = ModuleSource(
        path=Path(relpath),
        relpath=relpath,
        text=source,
        tree=ast.parse(source),
        lines=source.splitlines(),
    )
    config = LintConfig(root=REPO_ROOT)
    return checker.check_module(module, config)


def rules_of(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# Determinism checker.


class TestDeterminismChecker:
    def test_wallclock_read_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import time\n\ndef f():\n    return time.time()\n",
        )
        assert rules_of(findings) == ["determinism-wallclock"]
        assert findings[0].line == 4

    def test_datetime_now_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import datetime\n\ndef f():\n    return datetime.datetime.now()\n",
        )
        assert rules_of(findings) == ["determinism-wallclock"]

    def test_numpy_random_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import numpy as np\n\ndef f(seed):\n    return np.random.default_rng(seed)\n",
        )
        assert rules_of(findings) == ["determinism-rng"]
        assert "repro.rng" in findings[0].hint

    def test_stdlib_random_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import random\n\ndef f():\n    return random.randint(0, 9)\n",
        )
        assert rules_of(findings) == ["determinism-rng"]

    def test_os_urandom_flagged(self):
        findings = check(
            DeterminismChecker(),
            "import os\n\ndef f():\n    return os.urandom(8)\n",
        )
        assert rules_of(findings) == ["determinism-rng"]

    def test_set_iteration_flagged(self):
        findings = check(
            DeterminismChecker(),
            "def f(xs):\n    for x in set(xs):\n        print(x)\n",
        )
        assert rules_of(findings) == ["determinism-unsorted-iter"]
        assert findings[0].line == 2

    def test_glob_iteration_flagged(self):
        findings = check(
            DeterminismChecker(),
            "from pathlib import Path\n\ndef f(root):\n"
            "    return [p for p in Path(root).glob('*.json')]\n",
        )
        assert rules_of(findings) == ["determinism-unsorted-iter"]

    def test_sorted_wrappers_pass(self):
        findings = check(
            DeterminismChecker(),
            "def f(xs, root):\n"
            "    for x in sorted(set(xs)):\n"
            "        print(x)\n"
            "    for p in sorted(root.glob('*.json')):\n"
            "        print(p)\n",
        )
        assert findings == []

    def test_seeded_rng_passes(self):
        findings = check(
            DeterminismChecker(),
            "from repro.rng import make_rng\n\ndef f(seed):\n"
            "    rng = make_rng(seed)\n    return rng.integers(1, 10)\n",
        )
        assert findings == []

    def test_dict_iteration_passes(self):
        # Dict iteration is insertion-ordered, hence deterministic.
        findings = check(
            DeterminismChecker(),
            "def f(d):\n    for key in d:\n        print(key, d[key])\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Atomicity checker.


class TestAtomicityChecker:
    def test_truncating_open_flagged(self):
        findings = check(
            AtomicityChecker(),
            "def publish(path, data):\n"
            "    with open(path, 'w') as handle:\n"
            "        handle.write(data)\n",
        )
        assert rules_of(findings) == ["atomic-write"]
        assert "atomic" in findings[0].hint

    def test_write_text_flagged(self):
        findings = check(
            AtomicityChecker(),
            "def publish(path, data):\n    path.write_text(data)\n",
        )
        assert rules_of(findings) == ["atomic-write"]

    def test_handrolled_tempfile_flagged(self):
        findings = check(
            AtomicityChecker(),
            "import tempfile\n\ndef publish(d):\n"
            "    return tempfile.NamedTemporaryFile(dir=d, delete=False)\n",
        )
        assert rules_of(findings) == ["atomic-write"]

    def test_append_and_read_modes_pass(self):
        findings = check(
            AtomicityChecker(),
            "def journal(path, line):\n"
            "    with open(path, 'a') as handle:\n"
            "        handle.write(line)\n"
            "    with open(path, 'rb+') as handle:\n"
            "        handle.truncate(0)\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n",
        )
        assert findings == []

    def test_blessed_helper_passes(self):
        findings = check(
            AtomicityChecker(),
            "from repro.runtime.atomic import write_atomic_json\n\n"
            "def publish(path, payload):\n"
            "    write_atomic_json(path, payload, indent=2)\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Hot-path checker.


class TestHotPathChecker:
    def test_allocation_in_loop_flagged(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef step(n):\n"
            "    for _ in range(n):\n"
            "        buf = np.zeros(4)\n",
        )
        assert rules_of(findings) == ["hotpath-alloc"]
        assert findings[0].line == 5

    def test_outless_ufunc_in_loop_flagged(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef step(theta, n):\n"
            "    for _ in range(n):\n"
            "        theta = np.sin(theta)\n",
        )
        assert rules_of(findings) == ["hotpath-alloc"]
        assert "out=" in findings[0].message

    def test_astype_in_loop_flagged(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef step(theta, n):\n"
            "    for _ in range(n):\n"
            "        low = theta.astype(np.float32)\n",
        )
        assert rules_of(findings) == ["hotpath-alloc"]

    def test_prealloc_then_inplace_passes(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef step(theta, n):\n"
            "    buf = np.empty_like(theta)\n"
            "    for _ in range(n):\n"
            "        np.sin(theta, out=buf)\n"
            "        np.add(theta, buf, out=theta)\n",
        )
        assert findings == []

    def test_hot_setup_annotation_exempts(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\n"
            "def build_buffers(shapes):  # repro-lint: hot-setup\n"
            "    return [np.zeros(s) for s in shapes]\n",
        )
        assert findings == []

    def test_init_is_setup(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\nclass Recorder:\n"
            "    def __init__(self, slots):\n"
            "        self.frames = [np.empty(s) for s in slots]\n",
        )
        assert findings == []

    def test_missing_dtype_in_f32_context_flagged(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef final(phases, dtype=np.float32):\n"
            "    return np.array(phases)\n",
        )
        assert rules_of(findings) == ["hotpath-dtype"]
        assert "float64" in findings[0].message

    def test_throughput_class_requires_dtype(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\nclass ThroughputModel:\n"
            "    def state(self, n):\n"
            "        return np.zeros(n)\n",
        )
        assert rules_of(findings) == ["hotpath-dtype"]

    def test_explicit_dtype_passes(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef final(phases, dtype=np.float32):\n"
            "    return np.array(phases, dtype=dtype)\n",
        )
        assert findings == []

    def test_plain_context_needs_no_dtype(self):
        findings = check(
            HotPathChecker(),
            "import numpy as np\n\ndef reference(phases):\n"
            "    return np.array(phases)\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# Suppressions, config scoping, and the walker (via run_lint).


def _mini_repo(tmp_path: Path, source: str) -> LintConfig:
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(source, encoding="utf-8")
    return LintConfig(
        root=tmp_path,
        paths=["pkg"],
        exclude=[],
        options={"determinism": {"paths": ["pkg"]}},
    )


class TestSuppressions:
    def test_reasoned_suppression_silences(self, tmp_path):
        config = _mini_repo(
            tmp_path,
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: disable=determinism-wallclock -- display only\n",
        )
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert findings == []

    def test_comment_block_above_suppresses(self, tmp_path):
        config = _mini_repo(
            tmp_path,
            "import time\n\ndef f():\n"
            "    # repro-lint: disable=determinism-wallclock -- event timestamps\n"
            "    # are observability metadata, never hashed.\n"
            "    return time.time()\n",
        )
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert findings == []

    def test_reasonless_suppression_is_inert_and_flagged(self, tmp_path):
        config = _mini_repo(
            tmp_path,
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: disable=determinism-wallclock\n",
        )
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert sorted(rules_of(findings)) == [
            "determinism-wallclock",
            "lint-suppression",
        ]

    def test_unrelated_rule_does_not_suppress(self, tmp_path):
        config = _mini_repo(
            tmp_path,
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: disable=atomic-write -- wrong rule\n",
        )
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert rules_of(findings) == ["determinism-wallclock"]

    def test_baseline_entry_drops_finding(self, tmp_path):
        config = _mini_repo(tmp_path, "import time\n\ndef f():\n    return time.time()\n")
        config.baseline = ["determinism-wallclock:pkg/mod.py"]
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert findings == []

    def test_out_of_scope_module_is_not_checked(self, tmp_path):
        config = _mini_repo(tmp_path, "import time\n\ndef f():\n    return time.time()\n")
        config.options = {"determinism": {"paths": ["elsewhere"]}}
        findings = run_lint(tmp_path, rules=["determinism"], config=config)
        assert findings == []

    def test_unknown_rule_filter_raises(self, tmp_path):
        config = _mini_repo(tmp_path, "x = 1\n")
        with pytest.raises(ValueError, match="unknown rule"):
            run_lint(tmp_path, rules=["nosuch"], config=config)


# ----------------------------------------------------------------------
# Reporters.


class TestReporters:
    FINDING = Finding(
        rule="determinism-rng",
        path="pkg/mod.py",
        line=7,
        message="ambient RNG",
        hint="use repro.rng",
    )

    def test_text_report(self):
        text = render_text([self.FINDING])
        assert "pkg/mod.py:7: [determinism-rng] ambient RNG" in text
        assert "1 finding(s)" in text
        assert render_text([]) == "repro-lint: 0 findings"

    def test_json_report_round_trips(self):
        payload = json.loads(render_json([self.FINDING]))
        assert payload["schema"] == "repro-lint/findings"
        assert payload["count"] == 1
        assert payload["findings"][0] == {
            "rule": "determinism-rng",
            "path": "pkg/mod.py",
            "line": 7,
            "message": "ambient RNG",
            "hint": "use repro.rng",
        }


# ----------------------------------------------------------------------
# Schema-hash coupling.

#: The dataclass field line the simulated schema change inserts before.
_ANCHOR = "replica_start: int = 0"


def _copy_schema_sources(tmp_path: Path) -> Path:
    """Copy the fingerprinted sources (+ manifest) into a mini repo root."""
    for relpath in list(schema.SOURCES.values()) + [schema.MANIFEST_PATH]:
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO_ROOT / relpath, target)
    return tmp_path


def _add_hashed_field(root: Path, bump_version: bool) -> None:
    jobs_path = root / schema.SOURCES["jobs"]
    source = jobs_path.read_text(encoding="utf-8")
    assert source.count(_ANCHOR) == 1
    source = source.replace(_ANCHOR, f"new_knob: int = 7\n    {_ANCHOR}")
    if bump_version:
        source = source.replace("JOB_SCHEMA_VERSION = 5", "JOB_SCHEMA_VERSION = 6")
    jobs_path.write_text(source, encoding="utf-8")


class TestSchemaManifest:
    def test_checked_in_manifest_matches_head(self):
        assert schema.load_manifest(REPO_ROOT) == schema.compute_manifest(REPO_ROOT)

    def test_manifest_contains_hashed_surfaces(self):
        manifest = schema.compute_manifest(REPO_ROOT)
        solve = manifest["surfaces"]["solve_job"]
        assert "total_iterations" in solve["fields"]
        assert "job_schema" in solve["describe_keys"]
        assert "precision" in manifest["surfaces"]["msropm_config"]["fields"]
        assert "KingsGraphSpec" in manifest["surfaces"]["graph_specs"]["classes"]
        assert manifest["versions"]["JOB_SCHEMA_VERSION"] == 5

    def test_field_addition_without_bump_fails_lint(self, tmp_path):
        root = _copy_schema_sources(tmp_path)
        _add_hashed_field(root, bump_version=False)
        findings = SchemaCouplingChecker().check_project(root, LintConfig(root=root))
        assert rules_of(findings) == ["schema-manifest"]
        assert "without bumping JOB_SCHEMA_VERSION" in findings[0].message

    def test_field_addition_with_bump_needs_regen_then_passes(self, tmp_path):
        root = _copy_schema_sources(tmp_path)
        _add_hashed_field(root, bump_version=True)
        checker = SchemaCouplingChecker()
        # Bump done but manifest stale: still a finding, pointing at regen.
        stale = checker.check_project(root, LintConfig(root=root))
        assert rules_of(stale) == ["schema-manifest"]
        assert "regenerated" in stale[0].message
        # regen-manifest accepts the bumped change and restores zero findings.
        schema.regenerate(root)
        assert checker.check_project(root, LintConfig(root=root)) == []

    def test_regenerate_refuses_unbumped_change(self, tmp_path):
        root = _copy_schema_sources(tmp_path)
        _add_hashed_field(root, bump_version=False)
        with pytest.raises(schema.SchemaExtractionError, match="bump JOB_SCHEMA_VERSION"):
            schema.regenerate(root)
        # --force overrides for provably non-semantic refactors.
        schema.regenerate(root, force=True)
        assert SchemaCouplingChecker().check_project(root, LintConfig(root=root)) == []

    def test_overrides_simulate_changes_without_touching_disk(self):
        jobs_rel = schema.SOURCES["jobs"]
        source = (REPO_ROOT / jobs_rel).read_text(encoding="utf-8")
        changed = source.replace(_ANCHOR, f"new_knob: int = 7\n    {_ANCHOR}")
        baseline = schema.compute_manifest(REPO_ROOT)
        simulated = schema.compute_manifest(REPO_ROOT, overrides={jobs_rel: changed})
        assert "new_knob" in simulated["surfaces"]["solve_job"]["fields"]
        assert schema.unbumped_changes(baseline, simulated) == [
            ("solve_job", "JOB_SCHEMA_VERSION")
        ]

    def test_missing_manifest_is_a_finding(self, tmp_path):
        root = _copy_schema_sources(tmp_path)
        (root / schema.MANIFEST_PATH).unlink()
        findings = SchemaCouplingChecker().check_project(root, LintConfig(root=root))
        assert rules_of(findings) == ["schema-manifest"]
        assert "missing" in findings[0].message


# ----------------------------------------------------------------------
# Module reachability.

#: A package whose CLI reaches modules in each way the walk must follow.
_REACH_SOURCES = {
    "__init__.py": "",
    "cli.py": (
        "from repro.pkg import helper\n"
        "from repro.registry import REGISTRY\n\n"
        "def main():\n"
        "    from repro import lazy\n"
        "    return helper, REGISTRY, lazy\n"
    ),
    "lazy.py": "X = 1\n",
    "pkg/__init__.py": (
        "from repro.pkg.impl import helper\n"
        "from repro.pkg.reexported import unused\n\n"
        "__all__ = [\"helper\", \"unused\"]\n"
    ),
    "pkg/impl.py": "def helper():\n    return 1\n",
    "pkg/reexported.py": "def unused():\n    return 2\n",
    "registry/__init__.py": "from repro.registry.first import First\n\nREGISTRY = [First]\n",
    "registry/first.py": "class First:\n    pass\n",
    "orphan.py": '"""Nothing imports this."""\n',
}


def _reach_repo(tmp_path: Path, orphan_header: str = "") -> LintConfig:
    for relpath, source in _REACH_SOURCES.items():
        target = tmp_path / "src" / "repro" / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        if relpath == "orphan.py":
            source = orphan_header + source
        target.write_text(source, encoding="utf-8")
    return LintConfig(root=tmp_path, paths=["src/repro"], exclude=[])


def _reach_findings(tmp_path: Path, orphan_header: str = ""):
    config = _reach_repo(tmp_path, orphan_header)
    return [
        (finding.rule, finding.path)
        for finding in run_lint(tmp_path, rules=["reachability"], config=config)
    ]


class TestReachability:
    def test_orphan_and_plain_reexport_are_flagged(self, tmp_path):
        assert _reach_findings(tmp_path) == [
            ("unreachable-module", "src/repro/orphan.py"),
            ("unreachable-module", "src/repro/pkg/reexported.py"),
        ]

    def test_function_level_import_is_an_edge(self, tmp_path):
        assert ("unreachable-module", "src/repro/lazy.py") not in _reach_findings(tmp_path)

    def test_from_package_import_resolves_to_the_defining_module(self, tmp_path):
        assert ("unreachable-module", "src/repro/pkg/impl.py") not in _reach_findings(tmp_path)

    def test_registry_in_package_init_is_an_edge(self, tmp_path):
        assert ("unreachable-module", "src/repro/registry/first.py") not in _reach_findings(
            tmp_path
        )

    def test_reasoned_directive_silences(self, tmp_path):
        header = "# repro-lint: disable=unreachable-module -- kept as a reference model\n"
        assert _reach_findings(tmp_path, header) == [
            ("unreachable-module", "src/repro/pkg/reexported.py"),
        ]

    def test_unreasoned_directive_is_inert_and_flagged(self, tmp_path):
        header = "# repro-lint: disable=unreachable-module\n"
        assert _reach_findings(tmp_path, header) == [
            ("lint-suppression", "src/repro/orphan.py"),
            ("unreachable-module", "src/repro/orphan.py"),
            ("unreachable-module", "src/repro/pkg/reexported.py"),
        ]


# ----------------------------------------------------------------------
# The repo itself and the CLI entry points.


@pytest.fixture()
def clean_tree(tmp_path: Path) -> Path:
    """A small tree that lints to zero findings under every rule.

    It holds the schema manifest with its fingerprinted sources and a
    ``repro/cli.py`` that imports each of them, so the project rules have
    something to check; the entry-point tests render over it instead of
    linting the whole repo again.
    """
    root = _copy_schema_sources(tmp_path)
    package = root / "src" / "repro"
    (package / "__init__.py").write_text("", encoding="utf-8")
    modules = [
        relpath[len("src/"):-len(".py")].replace("/", ".")
        for relpath in schema.SOURCES.values()
    ]
    (package / "cli.py").write_text(
        "".join(f"import {module}\n" for module in modules), encoding="utf-8"
    )
    return root


class TestRepoIsClean:
    def test_repo_lints_to_zero_findings(self):
        assert run_lint(REPO_ROOT) == []

    def test_cli_dev_lint(self, capsys, clean_tree):
        from repro.cli import main

        assert main(["dev", "lint", "--root", str(clean_tree)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_cli_dev_lint_json(self, capsys, clean_tree):
        from repro.cli import main

        assert main(["dev", "lint", "--format", "json", "--root", str(clean_tree)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "schema": "repro-lint/findings",
            "report_version": 1,
            "count": 0,
            "findings": [],
        }

    def test_cli_dev_lint_reports_findings(self, capsys, clean_tree):
        from repro.cli import main

        (clean_tree / "src" / "repro" / "orphan.py").write_text("X = 1\n", encoding="utf-8")
        assert main(["dev", "lint", "--root", str(clean_tree)]) == 1
        assert "[unreachable-module]" in capsys.readouterr().out

    def test_cli_regen_check(self, capsys):
        from repro.cli import main

        assert main(["dev", "regen-manifest", "--check", "--root", str(REPO_ROOT)]) == 0
        assert "current" in capsys.readouterr().out

    def test_module_entry_point(self, capsys, clean_tree):
        from repro.devtools.__main__ import main as devtools_main

        assert devtools_main(["--root", str(clean_tree), "lint"]) == 0
