"""In-repo static analysis (``repro-lint``) guarding this repo's invariants.

The reproduction's load-bearing guarantees — determinism of everything that
feeds a job hash, schema-version-gated cache reuse, atomic-rename-only
durable writes, allocation-free hot loops — are enforced dynamically by the
test suite.  This package enforces them *statically*, at lint time, so a
violating line fails CI the moment it is pushed instead of hours later (or
never, if no test happens to cover it).  It also keeps the package free of
modules that no command imports.

Entry points:

* ``msropm dev lint [--format json] [--rule ...]`` (or
  ``python -m repro.devtools lint``) — run the checker suite.
* ``python -m repro.devtools regen-manifest`` — regenerate
  ``schema_manifest.json`` after a hash-relevant schema change *and* its
  version bump.

Everything here is stdlib-only (``ast`` + ``tokenize``-free line scanning);
the analyzer never imports the code it checks.
"""

from repro.devtools.analyzer import (  # noqa: F401
    Finding,
    LintConfig,
    load_config,
    render_json,
    render_text,
    run_lint,
)
