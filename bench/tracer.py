"""Span tracing of dsekit's layers from outside the package.

``Tracer.install()`` wraps the public functions and the public methods (and
constructors) of the classes of each layer module.  A module-level function
is replaced both on its defining module and on every dsekit module that
bound the same object by ``from ... import``, so calls between layers are
seen too.  Each call records a span (name, start, end, parent, operation
id) into flat in-memory arrays; ``remove()`` puts every original back and
``write()`` saves the spans when the run ends.  ``layer_metrics()`` turns
the spans into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
import types
from array import array
from pathlib import Path

LAYERS = ("intervals", "maps", "multiset", "dse", "pieces", "decompose",
          "division", "bvn", "serialize", "cli")

# Private helpers that do the CLI's JSON reading; with the CLI's json.dumps
# they make up cli.json_io_s.
_JSON_IO = ("_read_json", "_read_matrix")

# Per-call numbers taken from a span's return value.
_NOTES = {
    "pieces.find_extension": lambda r: 0 if r is None else 1,
    "division.find_better_path": lambda r: 0 if r is None else r.length,
    "dse.normalize_cover": lambda r: sum(len(m.atoms) for m in r.maps),
}


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.note = array("q")
        self.op_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        note = _NOTES.get(name)
        start, end, parent, names, ops, notes = (
            self.start, self.end, self.parent, self.name, self.op, self.note)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            ops.append(tracer.op_id)
            notes.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(result)
            return result

        return traced

    def next_op(self) -> None:
        """Start a new operation: later spans carry the next operation id."""
        self.op_id += 1

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(member.__func__, name)))
            elif isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self.wrap(member, name))

    def install(self) -> None:
        modules = {layer: sys.modules[f"dsekit.{layer}"] for layer in LAYERS}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
                elif layer == "cli" and attr in _JSON_IO:
                    wrapped[id(obj)] = (obj, self.wrap(obj, "cli.json_io"))
                elif (inspect.isclass(obj) and not attr.startswith("_")
                      and not issubclass(obj, BaseException)):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "dsekit" and not modname.startswith("dsekit."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        cli = modules["cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(cli.json))
        proxy.dumps = self.wrap(cli.json.dumps, "cli.json_io")
        self._patch(cli, "json", proxy)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Save the spans as gzip'd tab-separated rows with a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# " + json.dumps({"names": self.names}) + "\n")
            fh.write("id\tparent\top\tname\tstart\tend\tnote\n")
            rows = zip(range(len(self.start)), self.parent, self.op, self.name,
                       self.start, self.end, self.note)
            fh.writelines(f"{i}\t{p}\t{o}\t{n}\t{s:.9f}\t{e:.9f}\t{x}\n"
                          for i, p, o, n, s, e, x in rows)

    def self_times(self) -> array:
        """Each span's duration minus the time its direct children cover."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own


# Spans reported on their own, by the metric name they are reported under.
_FUNCTIONS = {
    "pieces.find_extension": "pieces.find_extension",
    "pieces.greedy_maximal_map": "pieces.greedy_maximal_map",
    "pieces.enlarge_piece": "pieces.enlarge_piece",
    "maps.PartialMap.preimage_of": "maps.preimage_of",
    "division.find_better_path": "division.find_better_path",
    "division.improve_division": "division.improve_division",
    "division.apply_better_path": "division.apply_better_path",
    "dse.normalize_cover": "dse.normalize_cover",
    "dse.validate": "dse.validate",
    "bvn.extract_permutation": "bvn.extract_permutation",
}


def layer_metrics(tr: Tracer, own) -> dict[str, float]:
    """Per-layer metrics from the spans and their self times ``own``."""
    layer_of = [n.split(".", 1)[0] for n in tr.names]
    metric_of = [_FUNCTIONS.get(n) for n in tr.names]
    ids = {n: i for i, n in enumerate(tr.names)}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, nid in enumerate(tr.name):
        for key in (layer_of[nid], metric_of[nid]):
            if key is not None:
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + own[i]

    def notes(name: str) -> list[int]:
        nid = ids.get(name, -1)
        return [note for n, note in zip(tr.name, tr.note) if n == nid]

    # chain steps of each find_extension call: its lemma_piece children
    ext, lemma = ids.get("pieces.find_extension", -1), ids.get("pieces.lemma_piece", -1)
    depth = {i: 0 for i, n in enumerate(tr.name) if n == ext}
    for n, p in zip(tr.name, tr.parent):
        if n == lemma and p in depth:
            depth[p] += 1
    json_io = ids.get("cli.json_io", -1)
    paths = [x for x in notes("division.find_better_path") if x]
    ext_calls = calls.get("pieces.find_extension", 0)
    path_calls = calls.get("division.find_better_path", 0)

    out: dict[str, float] = {f"{layer}.self_s": self_s.get(layer, 0.0)
                             for layer in LAYERS}
    for layer in ("intervals", "maps", "multiset"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for key in ("pieces.find_extension", "pieces.greedy_maximal_map",
                "maps.preimage_of", "division.find_better_path",
                "dse.normalize_cover", "bvn.extract_permutation"):
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
    for key in ("division.apply_better_path", "dse.validate"):
        out[f"{key}.self_s"] = self_s.get(key, 0.0)
    extensions = sum(notes("pieces.find_extension"))
    out.update({
        "pieces.extensions": extensions,
        "pieces.extension_yield": extensions / ext_calls if ext_calls else 0.0,
        "pieces.chain_depth_max": max(depth.values(), default=0),
        "pieces.chain_depth_sum": sum(depth.values()),
        "pieces.enlarge_rounds": calls.get("pieces.enlarge_piece", 0),
        "division.paths": len(paths),
        "division.path_yield": len(paths) / path_calls if path_calls else 0.0,
        "division.path_length_max": max(paths, default=0),
        "division.improve_rounds": calls.get("division.improve_division", 0),
        "dse.normalize_cover.atoms": sum(notes("dse.normalize_cover")),
        "cli.json_io_s": sum(e - s for n, s, e in zip(tr.name, tr.start, tr.end)
                             if n == json_io),
        "trace.spans": len(tr.start),
    })
    return out
