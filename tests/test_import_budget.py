"""Import budget: what a fresh ``import repro.cli`` may load.

Every ``msropm`` process pays at start-up for what ``repro.cli`` imports, and
so do ``serve``, each pool worker's pre-import and each spawned fleet worker.
SciPy submodules the solver never calls on its hot path (``scipy.integrate``
and the ``optimize``/``special``/``linalg`` it pulls in, ``scipy.stats``) are
imported inside the function that needs them, as
``repro.experiments.equivalence`` does for ``scipy.stats``; ``asyncio`` is
imported only by ``msropm serve``.  The circuit modules listed here were
deleted and must stay gone.

A process that never speaks HTTP loads no HTTP stack: ``urllib.request`` is
imported inside ``WebhookSink``, and with it ``http.client`` and ``ssl``;
``repro.service`` does not re-export its client, so only the ``client``
commands load it.  That holds for ``import repro.cli`` and for solver
processes that import ``repro.runtime.runner`` and nothing else of the
program (perfbench's ``paper-*`` workloads).

The check runs ``python -X importtime`` in a fresh interpreter and, on
failure, names the import chain that first loaded the module.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Dict, List

import pytest

FORBIDDEN = (
    "scipy.integrate",
    "scipy.optimize",
    "scipy.special",
    "scipy.stats",
    "scipy.linalg",
    "asyncio",
    "repro.circuit.netlist",
    "repro.circuit.mux",
    "repro.circuit.readout",
    "repro.circuit.dff",
    "repro.circuit.shil",
    "urllib.request",
    "http.client",
    "ssl",
)

#: Modules a fresh ``import repro.runtime.runner`` must not load.
RUNNER_FORBIDDEN = ("urllib.request", "http.client", "ssl")


def import_chains(module: str) -> Dict[str, List[str]]:
    """Map every module a fresh ``import <module>`` loads to its import chain.

    ``-X importtime`` prints one line per module when its import finishes,
    indented by nesting depth, so a module's importer is the next line with
    a smaller indent.  Only a module's first import is printed, so each chain
    is the one that actually loaded it.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        capture_output=True, text=True, env=env, check=True,
    )
    entries = []
    for line in completed.stderr.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        field = line.rsplit("|", 1)[1]
        entries.append((len(field) - len(field.lstrip()), field.strip()))
    chains: Dict[str, List[str]] = {}
    for index, (indent, name) in enumerate(entries):
        chain = [name]
        for parent_indent, parent in entries[index + 1:]:
            if parent_indent < indent:
                chain.append(parent)
                indent = parent_indent
        chains.setdefault(name, chain[::-1])
    return chains


@pytest.fixture(scope="module")
def cli_imports() -> Dict[str, List[str]]:
    return import_chains("repro.cli")


def test_chains_name_the_importer(cli_imports):
    assert cli_imports["repro.cli"] == ["repro.cli"]
    assert cli_imports["repro"] == ["repro.cli", "repro"]
    assert cli_imports["repro.core.machine"][0] == "repro.cli"


@pytest.mark.parametrize("module", FORBIDDEN)
def test_cli_start_up_does_not_load(cli_imports, module):
    chain = cli_imports.get(module)
    assert chain is None, f"import repro.cli loads {module}: " + " -> ".join(chain)


@pytest.fixture(scope="module")
def runner_imports() -> Dict[str, List[str]]:
    return import_chains("repro.runtime.runner")


@pytest.mark.parametrize("module", RUNNER_FORBIDDEN)
def test_runner_start_up_does_not_load(runner_imports, module):
    chain = runner_imports.get(module)
    assert chain is None, (
        f"import repro.runtime.runner loads {module}: " + " -> ".join(chain)
    )
