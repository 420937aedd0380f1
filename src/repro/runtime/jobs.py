"""Jobs: the schedulable units of work of the experiment runtime.

The runtime's primitive is the :class:`Job` protocol — a picklable value
object with a *stable content hash* and a worker-executable body — which is
what makes the rest of the runtime possible:

* the :mod:`repro.runtime.scheduler` ships jobs to worker processes (pickle)
  and collects their JSON payloads in submission order,
* the :mod:`repro.runtime.cache` keys its on-disk entries by the job hash,
* the :class:`~repro.runtime.runner.ExperimentRunner` deduplicates identical
  jobs across experiments by that same hash.

:class:`SolveJob` is the MSROPM instantiation: "run the machine on graph G
with configuration C, seeded from S, for iterations [a, b) of an R-iteration
solve".  Replica-range chunking (``SolveJob.split``) shards one large solve
into several jobs whose merged results are bit-identical to the unchunked
run, because per-iteration seeds are derived from the *full* solve up front
and every replica consumes only its own RNG stream.
:class:`repro.runtime.baselines.BaselineJob` wraps the SA/tabu/ROIM/
single-stage baseline solvers in the same protocol, so the scenario matrix's
baseline column shards across the warm process pool exactly like the MSROPM
column does.

Graphs are carried as :class:`GraphSpec` descriptions rather than instances so
a job stays small on the wire and content-addressable: a King's board by its
shape, a DIMACS ``.col`` file by the SHA-256 of its text, a generated ensemble
member by its recipe (workload family + parameters + seed), an explicit graph
by the SHA-256 of its canonical JSON form.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exceptions import ConfigurationError
from repro.core.config import MSROPMConfig
from repro.core.results import SolveResult
from repro.graphs.graph import Graph

#: Version of the job-hash recipe.  Bump whenever the hashed payload or the
#: solver semantics change in a result-affecting way; every cache entry keyed
#: under the old recipe then misses and is recomputed cleanly.
#:
#: History: 1 — MSROPM-only SolveJobs.  2 — polymorphic job protocol
#: (``job_kind`` in the hashed identity) and the raw (unclipped) stage-1
#: accuracy added to persisted results; cached v1 entries would deserialize
#: without the raw field, so they are invalidated wholesale.  3 — the
#: precision tier rides in the hashed config (``MSROPMConfig.precision``) and
#: results carry execution metadata; exact and throughput runs of the same
#: workload therefore hash differently and can never share a cache entry.
JOB_SCHEMA_VERSION = 3


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(payload: Dict) -> str:
    """Serialize ``payload`` to the canonical JSON form used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


# ----------------------------------------------------------------------
# Graph specifications
# ----------------------------------------------------------------------
class GraphSpec(ABC):
    """A declarative, content-addressable description of a problem graph."""

    @abstractmethod
    def build(self) -> Graph:
        """Materialize the graph (called in the worker process)."""

    @abstractmethod
    def fingerprint(self) -> Dict:
        """JSON-able content identity of the graph (goes into the job hash)."""

    @property
    @abstractmethod
    def label(self) -> str:
        """Short human-readable name for logs and reports."""

    @property
    def deterministic(self) -> bool:
        """Whether :meth:`build` always materializes the same graph.

        ``True`` for every content-addressed spec; a generated-ensemble spec
        without a fixed seed overrides this, which makes its jobs uncacheable
        (see :attr:`SolveJob.cacheable`).
        """
        return True


@dataclass(frozen=True)
class KingsGraphSpec(GraphSpec):
    """A ``rows x cols`` King's graph (the paper's benchmark topology)."""

    rows: int
    cols: int

    def build(self) -> Graph:
        from repro.graphs.generators import kings_graph

        return kings_graph(self.rows, self.cols)

    def fingerprint(self) -> Dict:
        return {"kind": "kings", "rows": self.rows, "cols": self.cols}

    @property
    def label(self) -> str:
        return f"kings-{self.rows}x{self.cols}"


@dataclass(frozen=True)
class GeneratedGraphSpec(GraphSpec):
    """A graph drawn from a registered generator family, addressed by recipe.

    The content identity is the *recipe* — family name, sorted parameters and
    generator seed — never the materialized adjacency, so the hash is stable
    across processes and independent of in-memory node order or generator
    implementation details like insertion order.  :meth:`build` dispatches
    through the workload registry (:mod:`repro.workloads`), which is also what
    makes the spec picklable at a few dozen bytes regardless of graph size.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so the spec stays
    hashable; use :meth:`create` to build one from keyword arguments.
    """

    family: str
    params: tuple
    seed: Optional[int] = None

    @classmethod
    def create(cls, family: str, seed: Optional[int] = None, **params) -> "GeneratedGraphSpec":
        """Build a spec from keyword parameters (sorted canonically)."""
        return cls(family=family, params=tuple(sorted(params.items())), seed=seed)

    def build(self) -> Graph:
        from repro.workloads.registry import build_family_graph

        return build_family_graph(self.family, dict(self.params), self.seed)

    def fingerprint(self) -> Dict:
        return {
            "kind": "generated",
            "family": self.family,
            "params": dict(self.params),
            "seed": self.seed,
        }

    @property
    def label(self) -> str:
        parts = "-".join(f"{name}{value}" for name, value in self.params)
        suffix = "" if self.seed is None else f"-s{self.seed}"
        return f"{self.family}-{parts}{suffix}" if parts else f"{self.family}{suffix}"

    @property
    def deterministic(self) -> bool:
        """A generated ensemble member is reproducible only under a fixed seed."""
        return self.seed is not None


class DimacsGraphSpec(GraphSpec):
    """A graph loaded from a DIMACS ``.col`` file, addressed by file content.

    The fingerprint hashes the file *text*, not the path: moving an instance
    does not invalidate cached results, editing it does.  The text is
    snapshotted on first access and carried with the spec (including across
    pickling to worker processes), so one spec always hashes and builds the
    same content even if the file changes mid-run, and the file is read at
    most once per spec.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._snapshot: Optional[str] = None
        self._digest: Optional[str] = None
        self._graph: Optional[Graph] = None

    def __eq__(self, other) -> bool:
        return isinstance(other, DimacsGraphSpec) and other.path == self.path

    def __hash__(self) -> int:
        return hash((DimacsGraphSpec, self.path))

    def __getstate__(self):
        # Snapshot the text *before* crossing a process boundary so every
        # worker builds exactly this content even for uncacheable jobs (whose
        # hash never forced a read); ship the snapshot but not the parsed
        # graph, keeping the pickled job small.
        self._text()
        state = dict(self.__dict__)
        state["_graph"] = None
        return state

    def _text(self) -> str:
        if self._snapshot is None:
            self._snapshot = Path(self.path).read_text(encoding="utf-8")
        return self._snapshot

    def build(self) -> Graph:
        from repro.graphs.io import from_dimacs

        if self._graph is None:
            self._graph = from_dimacs(self._text(), name=Path(self.path).stem)
        return self._graph

    def fingerprint(self) -> Dict:
        if self._digest is None:
            self._digest = _sha256_text(self._text())
        return {"kind": "dimacs", "sha256": self._digest}

    @property
    def label(self) -> str:
        return Path(self.path).stem or "dimacs"


class ExplicitGraphSpec(GraphSpec):
    """An in-memory graph, addressed by the SHA-256 of its canonical JSON.

    Used by the sweep harness and library callers that already hold a
    :class:`Graph`.  The JSON form (and therefore the hash) is computed once
    and reused across the many jobs of a sweep.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._digest: Optional[str] = None

    def build(self) -> Graph:
        return self.graph

    def fingerprint(self) -> Dict:
        if self._digest is None:
            from repro.graphs.io import to_json

            self._digest = _sha256_text(to_json(self.graph))
        return {"kind": "explicit", "sha256": self._digest}

    @property
    def label(self) -> str:
        return self.graph.name or f"graph-{self.graph.num_nodes}n"


def as_graph_spec(source: Union[GraphSpec, Graph, str, Path]) -> GraphSpec:
    """Coerce a graph, spec, or ``.col``/``.json`` path into a :class:`GraphSpec`.

    Paths dispatch on their suffix like :func:`repro.graphs.io.read_graph`:
    ``.json`` loads the label-preserving JSON codec (content-addressed via the
    loaded graph), everything else is treated as DIMACS.
    """
    if isinstance(source, GraphSpec):
        return source
    if isinstance(source, Graph):
        return ExplicitGraphSpec(source)
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix.lower() == ".json":
            from repro.graphs.io import read_json

            return ExplicitGraphSpec(read_json(path))
        return DimacsGraphSpec(str(source))
    raise ConfigurationError(f"cannot build a graph spec from {type(source)!r}")


# ----------------------------------------------------------------------
# The job protocol
# ----------------------------------------------------------------------
class Job(ABC):
    """A schedulable, content-addressable unit of work.

    Every job type the runtime can shard — MSROPM solves, baseline runs,
    campaign stage work — implements this protocol.  The contract:

    * the job is a small picklable value object (it crosses process
      boundaries whole),
    * :meth:`execute` runs the work and returns a *JSON-serializable payload*
      — the wire format between worker and parent and the on-disk cache
      format, so a result is identical whether it was computed inline, in a
      worker process, or read back from the cache,
    * :meth:`decode` turns a payload back into the rich result the caller
      consumes; :meth:`encode` is its inverse (used to serve a decoded
      result; the runner stores the payload :meth:`execute` produced and
      never re-encodes),
    * :meth:`describe` is the job's full hashed identity; two jobs with equal
      descriptions are interchangeable and share one cache entry.

    ``job_kind`` namespaces the hash so two different job types can never
    collide on one cache entry, even if their remaining payloads matched.
    """

    #: Short tag naming the job type; folded into the content hash.
    job_kind: str = "job"

    @property
    @abstractmethod
    def cacheable(self) -> bool:
        """Whether the job is deterministic (safe to content-hash and cache)."""

    @abstractmethod
    def describe(self) -> Dict:
        """The hashed identity of the job as a JSON-able dictionary."""

    @property
    @abstractmethod
    def label(self) -> str:
        """Short human-readable name for progress output."""

    @abstractmethod
    def execute(self) -> Dict:
        """Run the job (in the worker process) and return its JSON payload."""

    @abstractmethod
    def decode(self, payload: Dict) -> Any:
        """Rebuild the rich result from a payload (parent side)."""

    def encode(self, result: Any) -> Dict:
        """Serialize a decoded result back to the payload form.

        The default assumes the decoded result *is* the payload (true for
        jobs whose results are plain dictionaries); jobs with rich result
        objects override this with their serializer.
        """
        return result

    def validate(self, result: Any) -> bool:
        """Whether a decoded result is complete for this job.

        The runner calls this on every freshly computed result before it is
        memoized or stored (an invalid one fails its job instead), and the
        cache on loaded entries, where ``False`` turns a partial or foreign
        entry under our key into a miss.
        """
        return True

    @cached_property
    def job_hash(self) -> str:
        """Stable SHA-256 content hash of the job (cache key, dedup key)."""
        if not self.cacheable:
            raise ConfigurationError(
                "jobs without a fixed seed are nondeterministic and have no content hash"
            )
        return _sha256_text(canonical_json(self.describe()))


# ----------------------------------------------------------------------
# MSROPM solve jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolveJob(Job):
    """One schedulable solve: graph + config + seed + replica range.

    ``replica_start``/``replica_stop`` select iterations ``[start, stop)`` of
    a ``total_iterations``-iteration solve whose per-iteration seeds derive
    from ``seed``.  A full solve is the range ``[0, total_iterations)``; any
    partition of that range into jobs merges back (in range order) to results
    bit-identical to the unchunked solve, because each replica owns an
    independent seeded stream.
    """

    spec: GraphSpec
    config: MSROPMConfig
    seed: int
    total_iterations: int
    replica_start: int = 0
    replica_stop: Optional[int] = None

    job_kind = "solve"

    def __post_init__(self) -> None:
        if self.total_iterations < 1:
            raise ConfigurationError(
                f"total_iterations must be at least 1, got {self.total_iterations}"
            )
        stop = self.stop
        if not 0 <= self.replica_start < stop <= self.total_iterations:
            raise ConfigurationError(
                f"invalid replica range [{self.replica_start}, {stop}) "
                f"for a {self.total_iterations}-iteration solve"
            )

    # ------------------------------------------------------------------
    @property
    def stop(self) -> int:
        """The exclusive end of the replica range (``None`` means the full solve)."""
        return self.total_iterations if self.replica_stop is None else self.replica_stop

    @property
    def num_replicas(self) -> int:
        """Number of iterations this job executes."""
        return self.stop - self.replica_start

    @property
    def cacheable(self) -> bool:
        """Whether this job's results are deterministic (safe to cache).

        A job is reproducible only when the solve seed is fixed, the graph
        spec builds deterministically (generated ensembles need their own
        seed), and, if the machine draws static frequency detuning, the config
        seed is fixed too.
        """
        if self.seed is None:
            return False
        if not self.spec.deterministic:
            return False
        if self.config.frequency_detuning_std > 0 and self.config.seed is None:
            return False
        return True

    # ------------------------------------------------------------------
    def describe(self) -> Dict:
        """The hashed identity of the job as a JSON-able dictionary."""
        from repro.analysis.results_io import FORMAT_VERSION

        return {
            "job_kind": self.job_kind,
            "job_schema": JOB_SCHEMA_VERSION,
            "results_format": FORMAT_VERSION,
            "graph": self.spec.fingerprint(),
            "config": asdict(self.config),
            "seed": self.seed,
            "total_iterations": self.total_iterations,
            "replica_start": self.replica_start,
            "replica_stop": self.stop,
        }

    @property
    def label(self) -> str:
        """Short name for progress output."""
        suffix = (
            ""
            if self.num_replicas == self.total_iterations
            else f"[{self.replica_start}:{self.stop}]"
        )
        return f"{self.spec.label}/i{self.total_iterations}{suffix}/s{self.seed}"

    # ------------------------------------------------------------------
    def split(self, replica_chunk: Optional[int]) -> List["SolveJob"]:
        """Split this job into chunks of at most ``replica_chunk`` replicas.

        Chunk boundaries depend only on the chunk size — never on the worker
        count — so the set of job hashes (and therefore the cache layout) is
        identical no matter how many processes execute them.
        """
        if replica_chunk is None or replica_chunk >= self.num_replicas:
            return [self]
        if replica_chunk < 1:
            raise ConfigurationError(f"replica_chunk must be >= 1, got {replica_chunk}")
        chunks = []
        for start in range(self.replica_start, self.stop, replica_chunk):
            chunks.append(
                SolveJob(
                    spec=self.spec,
                    config=self.config,
                    seed=self.seed,
                    total_iterations=self.total_iterations,
                    replica_start=start,
                    replica_stop=min(start + replica_chunk, self.stop),
                )
            )
        return chunks

    @property
    def memoizable(self) -> bool:
        """Whether the job's graph+machine construction is reusable.

        Construction is deterministic — and therefore shareable between jobs —
        when the graph spec builds deterministically and any static frequency
        detuning is drawn from a fixed config seed.  (Unlike
        :attr:`cacheable`, the *solve* seed is irrelevant: the memo only
        caches the constructed machine, never results.)
        """
        if not self.spec.deterministic:
            return False
        if self.config.frequency_detuning_std > 0 and self.config.seed is None:
            return False
        return True

    def run(self) -> SolveResult:
        """Execute the job in-process and return its range's results.

        Iteration indices in the returned result are *global* (relative to the
        full solve), which is what makes range merging order-preserving.
        Graph and machine construction goes through the process-local machine
        memo, so repeat jobs on the same (problem, config) — replica chunks of
        one solve, sweep reruns, warm scenario matrices — skip the rebuild and
        reuse the machine's precompiled stage executors.
        """
        graph, machine = build_machine(self.spec, self.config, memoize=self.memoizable)
        iterations = machine.solve_range(
            total_iterations=self.total_iterations,
            start=self.replica_start,
            stop=self.stop,
            seed=self.seed,
        )
        return SolveResult(
            graph=graph,
            num_colors=self.config.num_colors,
            iterations=iterations,
            metadata=machine.result_metadata(),
        )

    # ------------------------------------------------------------------
    # Job protocol
    # ------------------------------------------------------------------
    def execute(self) -> Dict:
        """Run the solve and return its persisted-form payload."""
        from repro.analysis.results_io import solve_result_to_dict

        return solve_result_to_dict(self.run())

    def decode(self, payload: Dict) -> SolveResult:
        """Rebuild the result, reusing the memoized graph when the process has one.

        The payload's graph is rebuilt from its index pairs only when the
        machine memo does not hold this job's graph; either way its node and
        edge counts are checked against the payload.
        """
        from repro.analysis.results_io import solve_result_from_dict

        graph = memoized_graph(self.spec, self.config) if self.memoizable else None
        return solve_result_from_dict(payload, graph)

    def encode(self, result: SolveResult) -> Dict:
        from repro.analysis.results_io import solve_result_to_dict

        return solve_result_to_dict(result)

    def validate(self, result: SolveResult) -> bool:
        """A result must carry exactly this job's replica range."""
        return len(result.iterations) == self.num_replicas


# ----------------------------------------------------------------------
# Process-local machine memo
# ----------------------------------------------------------------------
#: Constructed (graph, machine) pairs keyed by spec/config content hash, one
#: memo per process (each scheduler worker keeps its own).  Small and bounded:
#: entries are a Graph plus an MSROPM with its cached stage executors.
_MACHINE_MEMO: "OrderedDict[str, tuple]" = OrderedDict()

#: Maximum number of memoized machines per process.
MACHINE_MEMO_MAX = 64

#: Process-local counters (inspected by tests and the hot-path benchmark).
MACHINE_MEMO_STATS = {"hits": 0, "builds": 0}


def machine_memo_key(spec: GraphSpec, config: MSROPMConfig) -> str:
    """Content hash identifying one (graph spec, config) construction."""
    return _sha256_text(
        canonical_json({"graph": spec.fingerprint(), "config": asdict(config)})
    )


def clear_machine_memo() -> None:
    """Drop every memoized machine (test isolation hook)."""
    _MACHINE_MEMO.clear()
    MACHINE_MEMO_STATS["hits"] = 0
    MACHINE_MEMO_STATS["builds"] = 0


def memoized_graph(spec: GraphSpec, config: MSROPMConfig) -> Optional[Graph]:
    """The graph the machine memo holds for this spec/config pair, or ``None``.

    A lookup only: it never builds, and it does not count as a memo hit.
    """
    entry = _MACHINE_MEMO.get(machine_memo_key(spec, config))
    return None if entry is None else entry[0]


def build_machine(spec: GraphSpec, config: MSROPMConfig, memoize: bool = True):
    """Build (or reuse) the graph and MSROPM for a job's spec/config pair.

    With ``memoize=True`` (deterministic constructions only — see
    :attr:`SolveJob.memoizable`) the pair is served from the process-local
    memo: repeat jobs on the same problem skip graph generation, netlist
    construction, detuning draws, and — because the machine carries its cached
    stage executors and coupling plans — operator precompilation.  Solves
    draw no state from the machine besides these immutable structures, so
    sharing is bit-neutral.
    """
    from repro.core.machine import MSROPM

    if not memoize:
        graph = spec.build()
        return graph, MSROPM(graph, config)
    key = machine_memo_key(spec, config)
    entry = _MACHINE_MEMO.get(key)
    if entry is not None:
        _MACHINE_MEMO.move_to_end(key)
        MACHINE_MEMO_STATS["hits"] += 1
        return entry
    graph = spec.build()
    machine = MSROPM(graph, config)
    _MACHINE_MEMO[key] = (graph, machine)
    MACHINE_MEMO_STATS["builds"] += 1
    while len(_MACHINE_MEMO) > MACHINE_MEMO_MAX:
        _MACHINE_MEMO.popitem(last=False)
    return graph, machine


def merge_job_results(jobs: List[SolveJob], results: List[SolveResult]) -> SolveResult:
    """Merge per-chunk results back into one solve, in replica order.

    The chunks must tile one solve's replica range; iterations are concatenated
    in ascending ``replica_start`` order, reproducing exactly the iteration
    list the unchunked solve would have produced.
    """
    if not jobs or len(jobs) != len(results):
        raise ConfigurationError("merge needs one result per job")
    ordered = sorted(zip(jobs, results), key=lambda pair: pair[0].replica_start)
    iterations = [item for _, result in ordered for item in result.iterations]
    first = ordered[0][1]
    return SolveResult(
        graph=first.graph,
        num_colors=first.num_colors,
        iterations=iterations,
        metadata=dict(first.metadata),
    )
