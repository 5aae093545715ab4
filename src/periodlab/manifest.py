"""Manifest ingestion and emission (schema "periodlab/1").

A manifest is one JSON document naming simplices (component expressions),
chains, forms, abstract complexes, and triangulations (complex + evaluator
descriptions + marks).  Validation failures carry JSON-pointer-style paths.
Evaluator descriptions close over every map a command emits (expression,
affine, cone, composed, glued), so emitted manifests re-ingest without loss.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import expr as ex
from .chains import AffineSimplex, Chain, Composed, Cone, ExprMap, SingularSimplex
from .forms import Form
from .glue import GluedMap, Triangulation
from .homology import SimplicialComplex, maximal_simplices

__all__ = [
    "Manifest",
    "ManifestError",
    "load_manifest",
    "load_glue_table",
    "evaluator_to_dict",
    "evaluator_from_dict",
    "triangulation_to_manifest",
    "canonical_json",
]

SCHEMA = "periodlab/1"


class ManifestError(ValueError):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path


def _expect(cond, message, path):
    if not cond:
        raise ManifestError(message, path)


def _get(obj, key, types, path, default=_expect, items=None):
    """``obj[key]``, checked to be of ``types`` (a list: with items of
    ``items``); a JSON boolean is not an integer."""
    _expect(isinstance(obj, dict), "expected a JSON object", path)
    if key not in obj:
        if default is not _expect:
            return default
        raise ManifestError(f"missing key {key!r}", path)
    val = obj[key]
    _expect(isinstance(val, types) and not isinstance(val, bool), f"key {key!r} has wrong type",
            f"{path}/{key}")
    if items is not None:
        bad = next((i for i, x in enumerate(val) if not isinstance(x, items) or isinstance(x, bool)), None)
        _expect(bad is None, "item has wrong type", f"{path}/{key}/{bad}")
    return val


def _dim(obj, comps, path) -> int:
    """``obj["dim"]`` of a map with components ``comps``: at most their
    number, the ambient dimension, since no nonzero d-form lives on R^n for
    d > n.  Checked before the map differentiates each component by each
    coordinate."""
    dim = _get(obj, "dim", int, path)
    _expect(0 <= dim <= len(comps), f"dim must be between 0 and the ambient dimension {len(comps)}",
            f"{path}/dim")
    return dim


def _simplices(vals, path, within=None) -> list:
    """Vertex tuples of a list of simplices, each a non-empty list of
    integers and, if given, a simplex of the complex ``within``."""
    _expect(isinstance(vals, list), "expected a list of simplices", path)
    for k, s in enumerate(vals):
        if not (isinstance(s, list) and set(map(type, s)) == {int}):
            raise ManifestError("a simplex is a non-empty list of integer vertices", f"{path}/{k}")
        _expect(within is None or s in within, "not a simplex of the complex", f"{path}/{k}")
    return [tuple(s) for s in vals]


# ---------------------------------------------------------------------------
# Evaluator descriptions.
# ---------------------------------------------------------------------------


def evaluator_to_dict(ev: SingularSimplex) -> dict:
    if isinstance(ev, ExprMap):
        return {
            "kind": "expr",
            "dim": ev.dim,
            "components": [ex.to_string(c) for c in ev.components],
        }
    if isinstance(ev, AffineSimplex):
        return {"kind": "affine", "vertices": [list(map(float, v)) for v in ev.vertices]}
    if isinstance(ev, Cone):
        return {"kind": "cone", "of": evaluator_to_dict(ev.inner)}
    if isinstance(ev, Composed):
        return {
            "kind": "composed",
            "of": evaluator_to_dict(ev.outer),
            "inner": evaluator_to_dict(ev.inner),
        }
    if isinstance(ev, GluedMap):
        return {
            "kind": "glued",
            "sigma": evaluator_to_dict(ev.h1_sigma),
            "tau": evaluator_to_dict(ev.h2_tau),
            "v_slots": list(ev.v_slots),
            "roles": [[k, i] for k, i in ev.roles],
        }
    raise ManifestError(f"evaluator type {type(ev).__name__} is not serialisable")


def _expr_map(maps: dict, comps: list, dim: int) -> ExprMap:
    """The one ExprMap of (comps, dim) among the maps of one manifest load:
    parsed once and compiled at most once, whoever names it."""
    key = (tuple(comps), dim)
    if key not in maps:
        maps[key] = ExprMap(comps, dim)
    return maps[key]


def evaluator_from_dict(desc: dict, path: str = "/evaluator") -> SingularSimplex:
    return _evaluator(desc, path, {})


def _evaluator(desc: dict, path: str, maps: dict) -> SingularSimplex:
    kind = _get(desc, "kind", str, path)
    try:
        if kind == "expr":
            comps = _get(desc, "components", list, path, items=str)
            dim = _dim(desc, comps, path)
            try:
                return _expr_map(maps, comps, dim)
            except ex.ExprSyntaxError as err:
                raise ManifestError(str(err), f"{path}/components") from err
        if kind == "affine":
            rows = _get(desc, "vertices", list, path, items=list)
            for i, row in enumerate(rows):
                bad = next((j for j, x in enumerate(row)
                            if type(x) not in (int, float) or not math.isfinite(x)), None)
                _expect(bad is None, "a vertex coordinate must be a finite number",
                        f"{path}/vertices/{i}/{bad}")
            return AffineSimplex(np.array(rows, dtype=float))
        if kind == "cone":
            return Cone(_evaluator(_get(desc, "of", dict, path), f"{path}/of", maps))
        if kind == "composed":
            return Composed(
                _evaluator(_get(desc, "of", dict, path), f"{path}/of", maps),
                _evaluator(_get(desc, "inner", dict, path), f"{path}/inner", maps),
            )
        if kind == "glued":
            return GluedMap(
                _evaluator(_get(desc, "sigma", dict, path), f"{path}/sigma", maps),
                _evaluator(_get(desc, "tau", dict, path), f"{path}/tau", maps),
                _get(desc, "v_slots", list, path, items=int),
                [tuple(r) for r in _get(desc, "roles", list, path, items=list)],
            )
    except ManifestError:
        raise  # already carries its path
    except (ex.ExprError, ValueError) as err:
        raise ManifestError(str(err), path) from err
    raise ManifestError(f"unknown evaluator kind {kind!r}", path)


# ---------------------------------------------------------------------------
# Manifest.
# ---------------------------------------------------------------------------


class Manifest:
    def __init__(self, data: dict, path: str = ""):
        _expect(isinstance(data, dict), "manifest must be a JSON object", path)
        schema = _get(data, "schema", str, path, SCHEMA)
        _expect(schema == SCHEMA, f"unsupported schema {schema!r}", f"{path}/schema")
        self.ambient = _get(data, "ambient_dim", int, path, 0)
        self.simplices: dict[str, SingularSimplex] = {}
        self.chains: dict[str, Chain] = {}
        self.forms: dict[str, Form] = {}
        self.complexes: dict[str, SimplicialComplex] = {}
        self.triangulations: dict[str, Triangulation] = {}
        maps: dict = {}  # (components, dim) -> its one ExprMap, for this load only

        for i, entry in enumerate(_get(data, "simplices", list, path, [])):
            p = f"{path}/simplices/{i}"
            name = self._fresh(_get(entry, "name", str, p), p)
            self.simplices[name] = self._named_map({**entry, "kind": "expr"}, p, maps)

        for i, entry in enumerate(_get(data, "derived_simplices", list, path, [])):
            p = f"{path}/derived_simplices/{i}"
            name = self._fresh(_get(entry, "name", str, p), p)
            self.simplices[name] = self._named_map(_get(entry, "map", dict, p), f"{p}/map", maps)

        for i, entry in enumerate(_get(data, "chains", list, path, [])):
            p = f"{path}/chains/{i}"
            name = self._fresh(_get(entry, "name", str, p), p)
            terms = []
            degree = _get(entry, "degree", int, p, None)
            for j, term in enumerate(_get(entry, "terms", list, p)):
                tp = f"{p}/terms/{j}"
                ref = _get(term, "simplex", str, tp)
                _expect(ref in self.simplices, f"unresolved simplex {ref!r}", f"{tp}/simplex")
                coeff = _get(term, "coeff", int, tp, 1)
                sigma = self.simplices[ref]
                if degree is None:
                    degree = sigma.dim
                _expect(sigma.dim == degree, "mixed dimensions in chain", f"{tp}/simplex")
                ambient = (terms[0][0] if terms else sigma).ambient
                _expect(sigma.ambient == ambient, f"a map into R^{sigma.ambient} in a chain of maps into R^{ambient}",
                        f"{tp}/simplex")
                terms.append((sigma, coeff))
            _expect(degree is not None, "empty chain needs an explicit degree", p)
            self.chains[name] = Chain(degree, terms)

        for i, entry in enumerate(_get(data, "forms", list, path, [])):
            p = f"{path}/forms/{i}"
            name = self._fresh(_get(entry, "name", str, p), p)
            degree = _get(entry, "degree", int, p)
            terms = []
            for j, term in enumerate(_get(entry, "terms", list, p)):
                tp = f"{p}/terms/{j}"
                idx = tuple(_get(term, "indices", list, tp, items=int))
                terms.append((idx, _get(term, "coeff", str, tp)))
            try:
                self.forms[name] = Form(degree, self.ambient, terms)
            except (ex.ExprError, ValueError) as err:
                raise ManifestError(str(err), p) from err

        for i, entry in enumerate(_get(data, "complexes", list, path, [])):
            p = f"{path}/complexes/{i}"
            name = self._fresh(_get(entry, "name", str, p), p)
            simplices = _get(entry, "simplices", list, p)
            _expect(bool(simplices), "complex needs at least one simplex", f"{p}/simplices")
            self.complexes[name] = SimplicialComplex(_simplices(simplices, f"{p}/simplices"))

        for i, entry in enumerate(_get(data, "triangulations", list, path, [])):
            p = f"{path}/triangulations/{i}"
            name = self._fresh(_get(entry, "name", str, p), p)
            cref = _get(entry, "complex", str, p)
            _expect(cref in self.complexes, f"unresolved complex {cref!r}", f"{p}/complex")
            K = self.complexes[cref]
            evaluators = {}
            for j, ee in enumerate(_get(entry, "evaluators", list, p)):
                ep = f"{p}/evaluators/{j}"
                simplex = tuple(sorted(_get(ee, "simplex", list, ep, items=int)))
                _expect(simplex in K, f"simplex {simplex} not in complex", f"{ep}/simplex")
                _expect(simplex not in evaluators, f"simplex {simplex} has a second evaluator", f"{ep}/simplex")
                if "map" in ee:
                    ev, where = self._named_map(ee["map"], f"{ep}/map", maps), f"{ep}/map"
                else:
                    ref, where = _get(ee, "named", str, ep), f"{ep}/named"
                    _expect(ref in self.simplices, f"unresolved simplex {ref!r}", where)
                    ev = self.simplices[ref]
                _expect(ev.dim == len(simplex) - 1, f"a dim-{ev.dim} evaluator on the simplex {simplex}", where)
                evaluators[simplex] = ev
            # every other simplex restricts the evaluator of a maximal one
            bare = [s for s in maximal_simplices(K) if s not in evaluators]
            if bare:
                raise ManifestError(f"maximal simplex {bare[0]} has no evaluator", f"{p}/evaluators")
            marks = {
                mname: _simplices(members, f"{p}/marks/{mname}", K)
                for mname, members in _get(entry, "marks", dict, p, {}).items()
            }
            try:
                self.triangulations[name] = Triangulation(K, evaluators, marks)
            except ValueError as err:
                raise ManifestError(str(err), p) from err

    def _named_map(self, desc, path: str, maps: dict) -> SingularSimplex:
        """The map that ``desc`` describes, which must land in R^ambient_dim."""
        ev = _evaluator(desc, path, maps)
        _expect(self.ambient in (0, ev.ambient),
                f"a map into R^{ev.ambient} in a manifest of ambient_dim {self.ambient}", path)
        return ev

    def _fresh(self, name: str, path: str) -> str:
        taken = (
            set(self.simplices) | set(self.chains) | set(self.forms)
            | set(self.complexes) | set(self.triangulations)
        )
        _expect(name not in taken, f"duplicate name {name!r}", f"{path}/name")
        return name

    def resolve(self, section: str, name: str):
        table = getattr(self, section)
        if name not in table:
            raise ManifestError(f"unresolved reference {name!r}", f"/{section}")
        return table[name]


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ManifestError(f"invalid JSON: {err}") from err


def load_manifest(path) -> Manifest:
    return Manifest(_load_json(path))


def load_glue_table(path) -> tuple[dict, str]:
    """The containment table ``{"containment": [{"tau": [...], "sigma": [...]}, ...],
    "mark": "B"}`` of a glue, as (tau -> sigma dict, mark name)."""
    table = _load_json(path)
    containment = {}
    for i, row in enumerate(_get(table, "containment", list, "", [])):
        p = f"/containment/{i}"
        tau = tuple(sorted(_get(row, "tau", list, p, items=int)))
        _expect(tau not in containment, f"tau {tau} has a second row", f"{p}/tau")
        containment[tau] = tuple(_get(row, "sigma", list, p, items=int))
    return containment, _get(table, "mark", str, "", "B")


def triangulation_to_manifest(name: str, T: Triangulation) -> dict:
    K = T.complex
    return {
        "schema": SCHEMA,
        "ambient_dim": T.ambient,
        "complexes": [
            {
                "name": f"{name}_complex",
                "simplices": [list(s) for s in maximal_simplices(K)],
            }
        ],
        "triangulations": [
            {
                "name": name,
                "complex": f"{name}_complex",
                "evaluators": [
                    {"simplex": list(s), "map": evaluator_to_dict(ev)}
                    for s, ev in sorted(T.evaluators.items())
                ],
                "marks": {
                    mname: sorted(list(s) for s in members)
                    for mname, members in sorted(T.marks.items())
                },
            }
        ],
    }


# ---------------------------------------------------------------------------
# Canonical JSON: sorted keys, floats at 17 significant digits, '\n' ending.
# ---------------------------------------------------------------------------


def _canon(obj, out: list):
    if isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if k:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _canon(item, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        # JSON has no NaN or infinity; a non-finite result reads as null
        out.append(f"{obj:.17g}" if math.isfinite(obj) else "null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: list = []
    _canon(obj, out)
    out.append("\n")
    return "".join(out)
