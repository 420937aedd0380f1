"""Wire protocol: JSON job specs in, runtime jobs out.

The service does not serialize full config objects over the wire — that would
create a second source of truth for job hashing.  Instead a job spec names one
of the *profiles* the CLI itself uses, plus the same scalar knobs the CLI
exposes, and the server rebuilds the job through exactly the code path the
equivalent CLI command runs.  Jobs submitted through the service therefore
carry byte-identical content hashes to direct CLI runs, which is what makes
the shared cache (and the CI byte-identity check) work.

Job spec shapes
---------------
``{"kind": "solve", ...}``
    One King's-board (or on-disk graph) solve, mirroring ``msropm solve``:
    keys ``rows`` (default 7), ``graph`` (optional server-side path,
    overrides ``rows``), ``colors`` (4), ``seed`` (1), ``iterations`` (10),
    ``precision`` ("exact").

``{"kind": "scenarios", ...}``
    The MSROPM column of the scenario matrix, mirroring
    ``msropm scenarios --baselines ""``: keys ``families`` (list, default the
    whole zoo), ``iterations`` (5), ``seed`` (2025), ``precision``.  Expands to one job per workload instance via the same
    planner the CLI uses.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import ReproError
from repro.core.config import MSROPMConfig
from repro.runtime.jobs import Job, KingsGraphSpec, SolveJob, as_graph_spec
from repro.runtime.runner import TICKET_DONE, Ticket

#: Version of the request/response shapes.  Mismatched clients are rejected
#: with a clear error instead of silently mis-parsing.
PROTOCOL_VERSION = 1

#: The job-spec kinds the service accepts.
JOB_KINDS = ("solve", "scenarios")


class ProtocolError(ReproError):
    """A malformed or unsupported request body (answered as HTTP 400)."""


def _field(spec: Dict[str, Any], key: str, kind: type, default: Any) -> Any:
    """One validated scalar of a job spec (``None`` default = required)."""
    value = spec.get(key, default)
    if value is None:
        raise ProtocolError(f"job spec is missing required key {key!r}")
    if kind is int and isinstance(value, bool):  # bool is an int subclass
        raise ProtocolError(f"job spec key {key!r} must be {kind.__name__}")
    if not isinstance(value, kind):
        raise ProtocolError(f"job spec key {key!r} must be {kind.__name__}")
    return value


def solve_jobs_from_spec(spec: Dict[str, Any]) -> List[Job]:
    """The single job of a ``solve`` spec (the ``msropm solve`` code path)."""
    seed = _field(spec, "seed", int, 1)
    config = MSROPMConfig(
        num_colors=_field(spec, "colors", int, 4),
        seed=seed,
        precision=_field(spec, "precision", str, "exact"),
    )
    graph = spec.get("graph")
    if graph is not None:
        graph_spec = as_graph_spec(str(graph))
    else:
        rows = _field(spec, "rows", int, 7)
        graph_spec = KingsGraphSpec(rows, rows)
    job = SolveJob(
        spec=graph_spec,
        config=config,
        seed=seed,
        total_iterations=_field(spec, "iterations", int, 10),
    )
    return [job]


def scenario_jobs_from_spec(spec: Dict[str, Any]) -> List[Job]:
    """The MSROPM jobs of a ``scenarios`` spec (the matrix planner's path)."""
    # Imported lazily: the workload zoo pulls in the analysis stack, which a
    # client-only process never needs.
    from repro.experiments.scenario_matrix import plan_scenario_requests
    from repro.workloads.registry import expand_workloads

    families: Optional[Sequence[str]] = None
    raw_families = spec.get("families")
    if raw_families is not None:
        if not isinstance(raw_families, list) or not all(
            isinstance(name, str) for name in raw_families
        ):
            raise ProtocolError("job spec key 'families' must be a list of strings")
        families = raw_families
    seed = _field(spec, "seed", int, 2025)
    instances = expand_workloads(families, base_seed=seed)
    requests = plan_scenario_requests(
        instances,
        iterations=_field(spec, "iterations", int, 5),
        seed=seed,
        precision=_field(spec, "precision", str, "exact"),
    )
    return [
        SolveJob(
            spec=request.spec,
            config=request.config,
            seed=request.seed,
            total_iterations=request.iterations,
        )
        for request in requests
    ]


def build_jobs(specs: Sequence[Dict[str, Any]]) -> List[Job]:
    """Turn a submission's job specs into runtime jobs (order-preserving)."""
    jobs: List[Job] = []
    for spec in specs:
        if not isinstance(spec, dict):
            raise ProtocolError("each job spec must be a JSON object")
        kind = spec.get("kind")
        if kind == "solve":
            jobs.extend(solve_jobs_from_spec(spec))
        elif kind == "scenarios":
            jobs.extend(scenario_jobs_from_spec(spec))
        else:
            raise ProtocolError(
                f"unknown job kind {kind!r}; expected one of {', '.join(JOB_KINDS)}"
            )
    if not jobs:
        raise ProtocolError("submission contains no jobs")
    return jobs


def encode_ticket(ticket: Ticket, include_result: bool = False) -> Dict[str, Any]:
    """A ticket's JSON form; a result ships as the payload the ticket kept
    (the worker's output or the cache entry: the exact bytes the cache
    stores), never re-encoded."""
    payload: Dict[str, Any] = {
        "ticket_id": ticket.ticket_id,
        "state": ticket.state,
        "source": ticket.source,
        "coalesced": ticket.coalesced,
    }
    if ticket.error is not None:
        payload["error"] = ticket.error
    if include_result and ticket.state == TICKET_DONE:
        payload["result"] = ticket.payload
    return payload
