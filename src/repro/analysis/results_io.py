"""Serialization of solve results to JSON.

Long experiments (the 40-iteration runs on the 2116-node problem) are worth
persisting so the analysis and the EXPERIMENTS.md bookkeeping can be redone
without re-simulating.  Results are stored as plain JSON: the graph, the
per-iteration accuracies, seeds, stage records and colorings.  Trajectories
and phase arrays are intentionally *not* persisted — they are large and can
be regenerated from the recorded seeds.

The layout (format version 5) is compact so that a cached result is cheap to
write, hash and read back:

* ``graph`` — ``name``, ``nodes`` (labels in node order, through the graph
  JSON codec's label form, so tuples survive) and ``edges``: the edges as
  node-index pairs ``(i, j)`` with ``i < j`` in ascending order, stored as a
  base64 little-endian ``int32`` array;
* per iteration, ``colors`` — one base64 ``uint8`` array in node order;
* per stage, ``side_b`` — a base64 ``np.packbits`` bitmap of length N (bit
  ``i`` set when node ``i`` is on side B; side A is the complement).

Decoding validates every member eagerly, as whole-array checks, and then
keeps the arrays as they are: a decoded
:class:`~repro.core.results.IterationResult` holds its ``uint8`` colors and
each :class:`~repro.core.results.StageResult` its side-B row, and they build
the label-keyed ``coloring`` and ``partition`` only when those are read.
Encoding packs straight from the same arrays (the solver's results hold
them too), so a round trip builds no per-node Python objects.

Every payload is stamped with :data:`SCHEMA` and :data:`FORMAT_VERSION`, and
loading rejects any mismatch.  This is what the runtime's result cache
(:mod:`repro.runtime.cache`) relies on for clean invalidation: when the format
evolves, old cache entries fail to load, read as misses, and are recomputed.
Any malformed v5 member (bad base64, an array or bitmap of the wrong length,
bitmap bits set past the last node, a color outside ``[0, num_colors)``, a
graph that does not match the one the caller supplies) raises
:class:`~repro.exceptions.AnalysisError` at decode, never at first access.
"""

from __future__ import annotations

import base64
import binascii
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.exceptions import AnalysisError, GraphError
from repro.core.results import IterationResult, SolveResult, StageResult
from repro.graphs.graph import Graph
from repro.graphs.io import decode_node, encode_node

PathLike = Union[str, Path]

#: Schema identifier written into every results payload.  Together with
#: :data:`FORMAT_VERSION` it names the exact serialized layout; loaders reject
#: anything else, so downstream stores (the runtime's result cache keys its
#: entries by a hash that includes these) invalidate cleanly whenever the
#: result format evolves instead of deserializing stale shapes.
SCHEMA = "msropm/solve-result"

#: Format version written into every results file.  Bump on any layout change.
#: History: 2 — stage records with clipped accuracies.  3 — stages carry the
#: raw (unclipped) accuracy ratio alongside the [0, 1] paper metric.  4 — the
#: payload carries the result's execution ``metadata`` (precision tier, state
#: dtype, numpy version).  5 — compact arrays: colors as base64 ``uint8``,
#: stage side B as a base64 bitmap, graph edges as base64 node-index pairs
#: (a 2116-node, 40-iteration result shrinks from 1.2 MB to about 0.3 MB).
FORMAT_VERSION = 5

#: Largest color count the ``uint8`` color arrays can carry.
MAX_COLORS = 256

_EDGE_DTYPE = np.dtype("<i4")


def _b64(array: np.ndarray) -> str:
    return base64.b64encode(array.tobytes()).decode("ascii")


def _unb64(text: Any, what: str) -> bytes:
    if not isinstance(text, str):
        raise AnalysisError(f"{what} must be a base64 string")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise AnalysisError(f"{what} is not valid base64: {exc}") from exc


def _edge_pairs(graph: Graph) -> np.ndarray:
    """The graph's edges as ``(i, j)`` index pairs, ``i < j``, in ascending order."""
    pairs = graph.edge_index_array()
    if pairs.size:
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return pairs.astype(_EDGE_DTYPE)


def _graph_to_dict(graph: Graph) -> Dict:
    return {
        "name": graph.name,
        "nodes": [encode_node(node) for node in graph.nodes],
        "edges": _b64(_edge_pairs(graph)),
    }


def _graph_from_dict(payload: Any, graph: Optional[Graph]) -> Graph:
    """Rebuild the payload's graph, or check ``graph`` against it and reuse it.

    A supplied graph (the job's own, from the process memo) must match the
    payload's node and edge counts; only the counts are compared, because the
    graph's content is already pinned by the job hash the payload is stored
    under.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("nodes"), list):
        raise AnalysisError("solve-result graph must carry a node list")
    raw = _unb64(payload.get("edges"), "graph edges")
    if len(raw) % (2 * _EDGE_DTYPE.itemsize):
        raise AnalysisError(f"graph edges hold {len(raw)} bytes, not whole index pairs")
    pairs = np.frombuffer(raw, dtype=_EDGE_DTYPE).reshape(-1, 2)
    labels = payload["nodes"]
    if graph is not None:
        if graph.num_nodes != len(labels) or graph.num_edges != len(pairs):
            raise AnalysisError(
                f"payload graph has {len(labels)} nodes and {len(pairs)} edges; "
                f"the job's graph has {graph.num_nodes} and {graph.num_edges}"
            )
        return graph
    if pairs.size and (pairs.min() < 0 or pairs.max() >= len(labels)):
        raise AnalysisError(f"graph edge endpoint outside 0..{len(labels) - 1}")
    try:
        nodes = [decode_node(label) for label in labels]
        rebuilt = Graph(
            nodes=nodes,
            edges=[(nodes[i], nodes[j]) for i, j in pairs.tolist()],
            name=str(payload.get("name", "")),
        )
    except (GraphError, TypeError) as exc:
        raise AnalysisError(f"malformed solve-result graph: {exc}") from exc
    if rebuilt.num_nodes != len(labels) or rebuilt.num_edges != len(pairs):
        raise AnalysisError("solve-result graph has duplicate nodes or edges")
    return rebuilt


def solve_result_to_dict(result: SolveResult) -> Dict:
    """Convert a :class:`SolveResult` to a JSON-serializable dictionary.

    Colors and side-B rows are packed straight from the results' arrays;
    only results built from label-keyed objects are walked node by node.
    """
    graph = result.graph
    if not 0 < result.num_colors <= MAX_COLORS:
        raise AnalysisError(f"cannot store {result.num_colors} colors (at most {MAX_COLORS})")
    node_order = result.node_order
    iterations: List[Dict] = []
    for item in result.iterations:
        stages = [
            {
                "stage_index": stage.stage_index,
                "cut_value": stage.cut_value,
                "reference_cut": stage.reference_cut,
                "accuracy": stage.accuracy,
                "raw_accuracy": stage.raw,
                "side_b": _b64(np.packbits(stage.side_b_mask(node_order))),
            }
            for stage in item.stage_results
        ]
        iterations.append(
            {
                "iteration_index": item.iteration_index,
                "seed": item.seed,
                "accuracy": item.accuracy,
                "run_time": item.run_time,
                "colors": _b64(item.color_array(node_order).astype(np.uint8)),
                "stages": stages,
            }
        )
    return {
        "schema": SCHEMA,
        "format_version": FORMAT_VERSION,
        "num_colors": result.num_colors,
        "graph": _graph_to_dict(graph),
        "metadata": dict(result.metadata),
        "iterations": iterations,
    }


def _colors(text: Any, num_nodes: int, num_colors: int) -> np.ndarray:
    colors = np.frombuffer(_unb64(text, "iteration colors"), dtype=np.uint8)
    if colors.shape[0] != num_nodes:
        raise AnalysisError(f"iteration colors hold {colors.shape[0]} values, expected {num_nodes}")
    if num_nodes and int(colors.max()) >= num_colors:
        raise AnalysisError(f"stored color {int(colors.max())} outside [0, {num_colors})")
    return colors


def _side_b(text: Any, num_nodes: int) -> np.ndarray:
    raw = _unb64(text, "stage side_b bitmap")
    if len(raw) != (num_nodes + 7) // 8:
        raise AnalysisError(
            f"stage side_b bitmap holds {len(raw)} bytes, expected {(num_nodes + 7) // 8}"
        )
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[num_nodes:].any():
        raise AnalysisError("stage side_b bitmap sets bits past the last node")
    return bits[:num_nodes].view(bool)


def solve_result_from_dict(payload: Dict, graph: Optional[Graph] = None) -> SolveResult:
    """Rebuild a :class:`SolveResult` from :func:`solve_result_to_dict` output.

    ``graph`` (optional) is the graph the caller already holds for this
    result — a job's graph from the process memo.  It is reused instead of
    rebuilding the payload's graph, after checking its node and edge counts.

    Every member is validated here, as whole-array checks; the results then
    hold the decoded arrays as they are, and build their label-keyed
    ``coloring`` and ``partition`` objects only if those are read.
    """
    if not isinstance(payload, dict) or "iterations" not in payload or "graph" not in payload:
        raise AnalysisError("malformed solve-result payload")
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise AnalysisError(f"unsupported results schema {schema!r} (expected {SCHEMA!r})")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise AnalysisError(
            f"unsupported results format version {version!r} (expected {FORMAT_VERSION})"
        )
    graph = _graph_from_dict(payload["graph"], graph)
    num_colors = int(payload["num_colors"])
    if not 0 < num_colors <= MAX_COLORS:
        raise AnalysisError(f"stored num_colors {num_colors} outside 1..{MAX_COLORS}")
    nodes = graph.nodes
    num_nodes = len(nodes)
    iterations: List[IterationResult] = []
    for item in payload["iterations"]:
        stages = [
            StageResult.from_side_b(
                stage_index=int(stage["stage_index"]),
                side_b=_side_b(stage["side_b"], num_nodes),
                nodes=nodes,
                cut_value=int(stage["cut_value"]),
                reference_cut=int(stage["reference_cut"]),
                accuracy=float(stage["accuracy"]),
                raw_accuracy=float(stage["raw_accuracy"]),
            )
            for stage in item.get("stages", [])
        ]
        iterations.append(
            IterationResult.from_colors(
                iteration_index=int(item["iteration_index"]),
                seed=int(item["seed"]),
                colors=_colors(item["colors"], num_nodes, num_colors),
                nodes=nodes,
                num_colors=num_colors,
                accuracy=float(item["accuracy"]),
                stage_results=stages,
                run_time=float(item.get("run_time", 0.0)),
            )
        )
    metadata = payload.get("metadata", {})
    if not isinstance(metadata, dict):
        raise AnalysisError("solve-result metadata must be a JSON object")
    return SolveResult(
        graph=graph, num_colors=num_colors, iterations=iterations, metadata=metadata
    )


def save_solve_result(result: SolveResult, path: PathLike) -> None:
    """Write a solve result to ``path`` as JSON."""
    Path(path).write_text(json.dumps(solve_result_to_dict(result)), encoding="utf-8")


def load_solve_result(path: PathLike) -> SolveResult:
    """Read a solve result previously written by :func:`save_solve_result`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"invalid results JSON in {path}: {exc}") from exc
    return solve_result_from_dict(payload)
