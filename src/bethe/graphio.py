"""JSON graph schema, matrix parsing, and result emission.

Graph schema::

    {"kind": "snfg" | "denfg",
     "edges": [{"id": int, "endpoints": [i, j], "alphabet": int}, ...],
     "factors": [{"node": int, "dense": [...]}
                 | {"node": int, "sparse": [{"config": [...], "value": v}]}]}

Dense arrays are flat row-major over the node's incident edges sorted by
edge id; for double-edge graphs each axis ranges over the alphabet^2
symbol pairs (x, x') in row-major pair order. Complex values are
serialized as [re, im]. Sparse configs list one entry per incident edge:
a plain symbol for classical graphs, a two-element [x, xp] pair for
double-edge graphs.

Every integer field goes through one checked reader and every table
value through another; each rejects bool, non-integral or non-numeric
input, NaN and inf with a ValidationError naming the JSON path.

CSV floats are written with 17 significant digits so emitted values
round-trip exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ValidationError
from .nfg import EdgeDecl, LocalFunction, NormalFactorGraph
from .perm import check_matrix

__all__ = [
    "parse_graph_json",
    "graph_to_json",
    "parse_matrix",
    "format_float",
    "emit_csv",
    "emit_json",
    "emit_jsonl",
]


def _fail(path, message):
    raise ValidationError(f"{message} at {path}")


def _read_int(raw, path, below=None):
    """A JSON integer (an integral float counts), in [0, below) when
    `below` is given; bool, non-integral and non-numeric input fail."""
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(path, f"need an integer, got {raw!r}")
    if below is not None and not 0 <= raw < below:
        _fail(path, f"symbol {raw} outside [0, {below})")
    return raw


def _read_real(raw, path):
    """A finite JSON number as a float; bool, non-numeric input, NaN, inf
    and integers beyond float range fail."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    _fail(path, f"need a finite number, got {raw!r}")


def _parse_value(raw, kind, path):
    """A table value: a real number, or an [re, im] pair in a double-edge
    graph."""
    if isinstance(raw, list) and len(raw) == 2:
        if kind == "snfg":
            _fail(path, "classical graphs take plain real values")
        return complex(_read_real(raw[0], f"{path}/0"), _read_real(raw[1], f"{path}/1"))
    return _read_real(raw, path)


def parse_graph_json(text: str) -> NormalFactorGraph:
    """Parse and structurally validate a graph document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("/", "graph document must be an object")
    kind = doc.get("kind")
    if kind not in ("snfg", "denfg"):
        _fail("/kind", f"kind must be 'snfg' or 'denfg', got {kind!r}")
    edges = []
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list) or not raw_edges:
        _fail("/edges", "need a non-empty edge list")
    for k, re_ in enumerate(raw_edges):
        path = f"/edges/{k}"
        if not isinstance(re_, dict):
            _fail(path, "edge must be an object")
        ends = re_.get("endpoints")
        if not isinstance(ends, list) or len(ends) != 2:
            _fail(f"{path}/endpoints", f"need two endpoints, got {ends!r}")
        edges.append(
            EdgeDecl(
                id=_read_int(re_.get("id"), f"{path}/id"),
                endpoints=tuple(
                    _read_int(v, f"{path}/endpoints/{i}") for i, v in enumerate(ends)
                ),
                alphabet_size=_read_int(re_.get("alphabet"), f"{path}/alphabet"),
            )
        )
    raw_factors = doc.get("factors")
    if not isinstance(raw_factors, list):
        _fail("/factors", "need a factor list")
    num_nodes = max(max(e.endpoints) for e in edges) + 1
    by_id = sorted(range(len(edges)), key=lambda k: edges[k].id)
    incident: dict[int, list[int]] = {}
    for pos in by_id:
        for v in edges[pos].endpoints:
            incident.setdefault(v, []).append(pos)
    factors = []
    for k, rf in enumerate(raw_factors):
        path = f"/factors/{k}"
        if not isinstance(rf, dict) or "node" not in rf:
            _fail(path, "factor must be an object with a node id")
        node = _read_int(rf["node"], f"{path}/node")
        if node not in incident:
            _fail(f"{path}/node", f"node {node} has no incident edges")
        dims = []
        for pos in incident[node]:
            d = edges[pos].alphabet_size
            dims.append(d if kind == "snfg" else d * d)
        shape = tuple(dims)
        if "dense" in rf:
            flat = rf["dense"]
            expected = math.prod(shape)
            if not isinstance(flat, list) or len(flat) != expected:
                _fail(
                    f"{path}/dense",
                    f"need {expected} row-major values, got "
                    f"{len(flat) if isinstance(flat, list) else type(flat).__name__}",
                )
            values = [
                _parse_value(v, kind, f"{path}/dense/{i}") for i, v in enumerate(flat)
            ]
            dtype = float if kind == "snfg" else complex
            table = np.array(values, dtype=dtype).reshape(shape)
            factors.append(LocalFunction(node=node, shape=shape, dense=table))
        elif "sparse" in rf:
            if not isinstance(rf["sparse"], list):
                _fail(f"{path}/sparse", "need a list of entries")
            entries = {}
            for i, item in enumerate(rf["sparse"]):
                ipath = f"{path}/sparse/{i}"
                if not isinstance(item, dict):
                    _fail(ipath, "sparse entry must be an object")
                cfg_raw = item.get("config")
                if not isinstance(cfg_raw, list) or len(cfg_raw) != len(shape):
                    _fail(f"{ipath}/config", "config length must match the degree")
                cfg = []
                for axis, sym in enumerate(cfg_raw):
                    d = edges[incident[node][axis]].alphabet_size
                    spath = f"{ipath}/config/{axis}"
                    if kind == "snfg":
                        cfg.append(_read_int(sym, spath, d))
                    else:
                        if not isinstance(sym, list) or len(sym) != 2:
                            _fail(spath, "double-edge symbols are [x, xp] pairs")
                        x, xp = (_read_int(s, f"{spath}/{h}", d) for h, s in enumerate(sym))
                        cfg.append(x * d + xp)
                entries[tuple(cfg)] = _parse_value(
                    item.get("value"), kind, f"{ipath}/value"
                )
            factors.append(LocalFunction(node=node, shape=shape, sparse=entries))
        else:
            _fail(path, "factor needs a dense or sparse table")
    try:
        return NormalFactorGraph(
            kind=kind, num_nodes=num_nodes, edges=edges, factors=factors
        )
    except ValidationError as exc:
        raise ValidationError(f"{exc} at /factors") from exc


def graph_to_json(g: NormalFactorGraph) -> str:
    doc = {
        "kind": g.kind,
        "edges": [
            {"id": e.id, "endpoints": list(e.endpoints), "alphabet": e.alphabet_size}
            for e in g.edges
        ],
        "factors": [],
    }
    for f in g.factors:
        if f.is_sparse:
            entries = []
            for cfg, val in sorted(f.sparse.items()):
                out_cfg = []
                for axis, pos in enumerate(g.incident(f.node)):
                    if g.is_classical:
                        out_cfg.append(int(cfg[axis]))
                    else:
                        out_cfg.append(list(g.edge_pair(pos, cfg[axis])))
                entries.append({"config": out_cfg, "value": _emit_value(val, g.kind)})
            doc["factors"].append({"node": f.node, "sparse": entries})
        else:
            flat = [
                _emit_value(v, g.kind) for v in np.asarray(f.dense).reshape(-1)
            ]
            doc["factors"].append({"node": f.node, "dense": flat})
    return json.dumps(doc)


def _emit_value(v, kind):
    if kind == "snfg":
        return float(np.real(v))
    v = complex(v)
    return [v.real, v.imag]


def parse_matrix(text: str) -> np.ndarray:
    """Square non-negative matrix from CSV rows or a JSON array of rows,
    checked against the supporting-permutation assumption."""
    text = text.strip()
    if not text:
        raise ValidationError("empty matrix input")
    if text.startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON matrix: {exc}") from exc
    else:
        rows = [
            [cell for cell in line.replace(";", ",").split(",") if cell.strip() != ""]
            for line in text.splitlines()
            if line.strip()
        ]
    try:
        theta = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"matrix is not rectangular numeric: {exc}") from exc
    return check_matrix(theta)


def format_float(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return f"{float(x):.17g}"


def emit_csv(rows, header, path=None):
    """Rows of scalars; floats get 17 significant digits, '.' decimal."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, (float, complex, np.floating)):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


class _NumpyEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, complex):
            return [o.real, o.imag]
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


def emit_json(payload, path=None) -> str:
    text = json.dumps(payload, cls=_NumpyEncoder, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def emit_jsonl(records, path=None) -> str:
    lines = [json.dumps(r, cls=_NumpyEncoder, sort_keys=True) for r in records]
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "a") as fh:
            fh.write(text)
    return text
