"""The causaloid registry: every region's expansion data in one object.

The registry holds one tomographic entry per probed region and one
compositional entry per requested grouping, plus deduction rules that let
some groupings be stored as stubs instead of full matrices. Everything
downstream (products, joint evaluation, heralding) reads from here.
"""
from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .compositional import CompositionalLambda, fiducial_rows_matrix, product_rows
from .errors import (
    ContextMismatch,
    MissingEntry,
    RuleInapplicable,
    SchemaError,
    SingularTransform,
    UnknownRegion,
    read_json,
    write_text,
)
from .operational import Region
from .tables import GammaSet, Label, ProbTable
from .tomographic import (
    DEFAULT_RANK_TOL,
    DEFAULT_RESIDUAL_TOL,
    OmegaSet,
    RVector,
    StateVector,
    TomographicLambda,
    born_rule,
    build_measurement_matrix,
    find_fiducial_set,
    r_vector,
    solve_expansion,
)

__all__ = [
    "DeducedEntry",
    "MetaRule",
    "RULE_REGISTRY",
    "Causaloid",
    "build_causaloid",
    "change_omega_basis",
    "hybrid_product",
    "causaloid_product",
    "joint_r_vector",
    "evaluate_joint",
    "meta_compress",
    "expand",
    "causaloid_to_dict",
    "causaloid_from_dict",
    "json_text",
    "save_causaloid",
    "load_causaloid",
]

MAX_BASIS_CONDITION = 1e12
FORMAT_VERSION = 1


# a registry key is a Region (first-level entry) or a tuple of keys
# (grouping whose factors are the child keys, in canonical order)
def key_union(key) -> Region:
    if isinstance(key, Region):
        return key
    locs: list[int] = []
    for child in key:
        locs.extend(key_union(child).locations)
    return Region(tuple(sorted(locs)))


def normalize_key(spec) -> "Region | tuple":
    """Canonical nested-tuple form: factors sorted by least location."""
    if isinstance(spec, Region):
        return spec
    children = tuple(normalize_key(c) for c in spec)
    if len(children) < 2:
        raise ValueError("a grouping needs at least two factors")
    ordered = tuple(sorted(children, key=lambda k: key_union(k).locations))
    seen: set[int] = set()
    for c in ordered:
        u = set(key_union(c).locations)
        if seen & u:
            raise ValueError("grouping factors must be pairwise disjoint")
        seen |= u
    return ordered


def key_to_str(key) -> str:
    if isinstance(key, Region):
        return str(key)
    return "(" + " x ".join(key_to_str(c) for c in key) + ")"


@dataclass(frozen=True)
class DeducedEntry:
    """A dropped composite entry: factors plus the rule that restores it."""

    key: tuple
    rule: str
    factor_omegas: tuple[OmegaSet, ...]

    def __post_init__(self):
        if not isinstance(self.key, tuple):
            raise ValueError("stubs describe grouped entries only")
        if self.rule not in RULE_REGISTRY:
            raise RuleInapplicable(
                f"rule {self.rule!r} is not registered "
                f"(entry {key_to_str(self.key)})"
            )


@dataclass(frozen=True)
class MetaRule:
    """One third-level deduction rule.

    ``drops`` decides whether a stored entry may be replaced by a stub;
    ``deduce`` rebuilds the entry from the stub's factor fiducial sets.
    """

    drops: Callable[[CompositionalLambda], bool]
    deduce: Callable[[DeducedEntry], CompositionalLambda]


def _tensor_drops(entry: CompositionalLambda) -> bool:
    # full product row set: the expansion is forced to the identity
    return entry.omega.size == entry.omega.parent_size


def _tensor_deduce(stub: DeducedEntry) -> CompositionalLambda:
    omega = product_rows(stub.factor_omegas)
    return CompositionalLambda(stub.factor_omegas, omega, np.eye(omega.parent_size))


RULE_REGISTRY: dict[str, MetaRule] = {
    "tensor-factorization": MetaRule(_tensor_drops, _tensor_deduce),
}


@dataclass(frozen=True, eq=False)
class Causaloid:
    """Immutable registry of expansion entries for one scenario."""

    regions: tuple[Region, ...]
    elementary: tuple[TomographicLambda, ...]
    composites: tuple[tuple[tuple, CompositionalLambda], ...] = ()
    deduced: tuple[DeducedEntry, ...] = ()
    rules: tuple[str, ...] = ()

    def __post_init__(self):
        if list(self.regions) != sorted(self.regions, key=lambda r: r.locations):
            raise ValueError("regions must be in canonical order")
        seen: set[int] = set()
        for r in self.regions:
            if seen & set(r.locations):
                raise ValueError("regions must be pairwise disjoint")
            seen |= set(r.locations)
        if tuple(e.region for e in self.elementary) != self.regions:
            raise ValueError("one first-level entry per region, in order")
        for name in self.rules:
            if name not in RULE_REGISTRY:
                raise RuleInapplicable(f"rule {name!r} is not registered")
        keys = [k for k, _ in self.composites] + [d.key for d in self.deduced]
        if len(set(keys)) != len(keys):
            raise ValueError("registry keys must be unique")
        known = set(self.regions) | set(keys)
        for key in keys:
            for child in key:
                if child not in known:
                    raise MissingEntry(
                        f"factor {key_to_str(child)} of {key_to_str(key)} "
                        "has no registry entry"
                    )
        # a stub carries its factors' fiducial sets as an entry does
        for key, entry in self.composites + tuple((d.key, d) for d in self.deduced):
            if entry.factor_omegas != tuple(self.omega_of(child) for child in key):
                raise ContextMismatch(
                    f"entry {key_to_str(key)} disagrees with its factors' "
                    "fiducial sets"
                )

    # -- lookups ---------------------------------------------------------

    def tomographic(self, region: Region) -> TomographicLambda:
        try:
            return self.elementary[self.regions.index(region)]
        except ValueError:
            raise UnknownRegion(f"no first-level entry for {region}") from None

    def entry(self, key):
        """Resolve a key to its entry, materializing stubs on demand."""
        if isinstance(key, Region):
            return self.tomographic(key)
        for k, entry in self.composites:
            if k == key:
                return entry
        for stub in self.deduced:
            if stub.key == key:
                return self._materialize(stub)
        raise MissingEntry(f"no registry entry for {key_to_str(key)}")

    def omega_of(self, key) -> OmegaSet:
        return self.entry(key).omega

    def keys(self) -> tuple:
        return tuple(self.regions) + tuple(k for k, _ in self.composites) + tuple(
            d.key for d in self.deduced
        )

    def product_entry(self, contexts: Sequence[OmegaSet]) -> CompositionalLambda:
        """The grouped entry whose factor fiducial sets are ``contexts``."""
        contexts = tuple(contexts)
        for _, entry in self.composites:
            if entry.factor_omegas == contexts:
                return entry
        for stub in self.deduced:
            if stub.factor_omegas == contexts:
                return self._materialize(stub)
        names = ", ".join(str(o.region) for o in contexts)
        raise MissingEntry(
            f"no stored entry or rule covers the grouping ({names})"
        )

    def _materialize(self, stub: DeducedEntry) -> CompositionalLambda:
        cache = getattr(self, "_cached_stub_entries", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_cached_stub_entries", cache)
        if stub.key not in cache:
            cache[stub.key] = RULE_REGISTRY[stub.rule].deduce(stub)
        return cache[stub.key]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _leaf_rows(
    entries: dict, key
) -> tuple[tuple[Region, ...], list[tuple[int, ...]]]:
    """Per fiducial element of ``key``: one gamma row index per leaf region."""
    omega = entries[key].omega
    if isinstance(key, Region):
        return (key,), [(i,) for i in omega.indices]
    parts = [_leaf_rows(entries, child) for child in key]
    regions = tuple(itertools.chain(*(p[0] for p in parts)))
    rows = []
    for flat in omega.indices:
        pos = np.unravel_index(flat, omega.dims)
        rows.append(tuple(itertools.chain(*(p[1][q] for p, q in zip(parts, pos)))))
    return regions, rows


def build_causaloid(
    table: ProbTable,
    composites: Sequence[Sequence] | None = None,
    *,
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_residual: float = DEFAULT_RESIDUAL_TOL,
) -> Causaloid:
    """Compress every region of a table and the requested groupings.

    ``composites`` lists groupings as sequences of regions, with nesting
    allowed: an inner sequence refers to a grouping listed earlier. When
    omitted, all region pairs are built. Entries are built in the order
    given, so inner groupings must come first. Both levels compress the
    same way: pick the fiducial rows of the entry's measurement matrix,
    then express every row over them.
    """
    regions = tuple(sorted(table.regions, key=lambda r: r.locations))
    if composites is None:
        composites = list(itertools.combinations(regions, 2))
    keys = list(regions) + [normalize_key(tuple(spec)) for spec in composites]
    entries: dict = {}
    for key in keys:
        if key in entries:
            continue
        if isinstance(key, Region):
            matrix = build_measurement_matrix(table, key)
        else:
            for child in key:
                if child not in entries:
                    raise MissingEntry(
                        f"factor {key_to_str(child)} of {key_to_str(key)} "
                        "must be built first"
                    )
            factor_omegas = tuple(entries[child].omega for child in key)
            matrix = fiducial_rows_matrix(
                table, [_leaf_rows(entries, child) for child in key], factor_omegas
            )
        omega = find_fiducial_set(matrix, tol_rank)
        lam = solve_expansion(matrix.values, omega.indices, tol_residual)
        if isinstance(key, Region):
            gamma = table.gammas[table.region_axis(key)]
            entries[key] = TomographicLambda(gamma=gamma, omega=omega, matrix=lam)
        else:
            entries[key] = CompositionalLambda(
                factor_omegas=factor_omegas, omega=omega, matrix=lam
            )
    return Causaloid(
        regions=regions,
        elementary=tuple(entries[r] for r in regions),
        composites=tuple((k, e) for k, e in entries.items() if isinstance(k, tuple)),
    )


# ---------------------------------------------------------------------------
# basis change
# ---------------------------------------------------------------------------

def change_omega_basis(entry, new_omega: OmegaSet):
    """Re-express an entry over a different fiducial choice.

    The restriction of the current matrix to the new fiducial rows must be
    invertible; the new matrix is the old one times that inverse.
    """
    old = entry.omega
    if new_omega.size != old.size:
        raise ContextMismatch("the new fiducial set must have the same size")
    if new_omega.every_row() != old.every_row():
        raise ContextMismatch("the new fiducial set indexes a different row set")
    rows = list(new_omega.indices)
    t = entry.matrix[rows]
    cond = float(np.linalg.cond(t))
    if not np.isfinite(cond) or cond > MAX_BASIS_CONDITION:
        raise SingularTransform(
            f"restriction to the new fiducial rows has condition {cond:.3e}"
        )
    lam = entry.matrix @ np.linalg.inv(t)
    lam[rows] = np.eye(len(rows))
    if isinstance(entry, TomographicLambda):
        return TomographicLambda(gamma=entry.gamma, omega=new_omega, matrix=lam)
    return CompositionalLambda(
        factor_omegas=entry.factor_omegas,
        omega=new_omega,
        matrix=lam,
    )


# ---------------------------------------------------------------------------
# products and joint evaluation
# ---------------------------------------------------------------------------

def hybrid_product(
    causaloid: Causaloid, factors: Sequence[tuple[OmegaSet, np.ndarray]]
) -> RVector:
    """The registry-mediated product of (context, components) factors.

    The factors are put in canonical order (least location first), their
    components multiplied out (last factor fastest) and contracted with the
    grouped entry whose factor fiducial sets are their contexts. Component
    k of the result sums the product of one component per factor times
    that entry's row for those components, column k; a full product row
    set gives the plain outer product. One factor is returned as it is.
    """
    ordered = sorted(factors, key=lambda f: f[0].region.locations)
    if len(ordered) == 1:
        return RVector(context=ordered[0][0], components=ordered[0][1])
    entry = causaloid.product_entry(tuple(context for context, _ in ordered))
    w = ordered[0][1]
    for _, components in ordered[1:]:
        w = np.multiply.outer(w, components)
    return RVector(context=entry.omega, components=w.reshape(-1) @ entry.matrix)


def causaloid_product(r1: RVector, r2: RVector, causaloid: Causaloid) -> RVector:
    """Compose two measurement vectors, in either order, through the registry."""
    return hybrid_product(
        causaloid, [(r1.context, r1.components), (r2.context, r2.components)]
    )


def joint_r_vector(causaloid: Causaloid, labels: Sequence[Label]) -> RVector:
    """The joint measurement vector of one label per scenario region."""
    if len(labels) != len(causaloid.regions):
        raise ContextMismatch("one label per scenario region is required")
    factors = [
        r_vector(lab, causaloid.tomographic(r))
        for r, lab in zip(causaloid.regions, labels)
    ]
    return hybrid_product(causaloid, [(f.context, f.components) for f in factors])


def evaluate_joint(
    causaloid: Causaloid, labels: Sequence[Label], state: StateVector
) -> float:
    """Joint probability of one label per region against a joint state."""
    r = joint_r_vector(causaloid, labels)
    return born_rule(r, state)


# ---------------------------------------------------------------------------
# meta compression
# ---------------------------------------------------------------------------

def meta_compress(causaloid: Causaloid, rules: Sequence[str]) -> Causaloid:
    """Replace rule-covered entries by stubs; keep everything else."""
    rules = tuple(rules)
    for name in rules:
        if name not in RULE_REGISTRY:
            raise RuleInapplicable(f"rule {name!r} is not registered")
    kept: list[tuple[tuple, CompositionalLambda]] = []
    stubs = list(causaloid.deduced)
    for key, entry in causaloid.composites:
        dropped = False
        for name in rules:
            if RULE_REGISTRY[name].drops(entry):
                stubs.append(DeducedEntry(key, name, entry.factor_omegas))
                dropped = True
                break
        if not dropped:
            kept.append((key, entry))
    return Causaloid(
        regions=causaloid.regions,
        elementary=causaloid.elementary,
        composites=tuple(kept),
        deduced=tuple(stubs),
        rules=rules,
    )


def expand(causaloid: Causaloid) -> Causaloid:
    """Materialize every stub back into a stored entry."""
    restored = list(causaloid.composites)
    for stub in causaloid.deduced:
        restored.append((stub.key, causaloid._materialize(stub)))
    restored.sort(key=lambda pair: key_union(pair[0]).locations)
    return Causaloid(
        regions=causaloid.regions,
        elementary=causaloid.elementary,
        composites=tuple(restored),
        deduced=(),
        rules=causaloid.rules,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def matrix_hex(matrix: np.ndarray) -> list[list[str]]:
    """Exact float hex strings, row by row.

    Each string is ``float.hex`` of the entry as a Python float; the
    report digests the compact JSON text of these rows.
    """
    rows = np.asarray(matrix, dtype=float).tolist()
    return [list(map(float.hex, row)) for row in rows]


def _matrix_from_hex(rows: list[list[str]]) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list):
        raise ValueError("matrix_hex must be a non-empty list of rows")
    n, c = len(rows), len(rows[0])
    if not all(isinstance(row, list) and len(row) == c for row in rows):
        raise ValueError("matrix_hex rows must be lists of equal length")
    # one pass over every string; float.fromhex keeps the values bit-exact
    values = np.fromiter(
        map(float.fromhex, itertools.chain.from_iterable(rows)), float, n * c
    )
    return values.reshape(n, c)


def _omega_to_dict(o: OmegaSet) -> dict:
    out: dict = {
        "region": list(o.region.locations),
        "indices": list(o.indices),
        "parent_size": o.parent_size,
        "row_kind": o.row_kind,
    }
    if o.row_kind == "omega-product":
        out["factors"] = [list(r.locations) for r in o.factors]
        out["dims"] = list(o.dims)
    return out


def _omega_from_dict(d: dict) -> OmegaSet:
    kind = d["row_kind"]
    indices = tuple(d["indices"])
    if not all(type(i) is int for i in indices):
        raise ValueError("fiducial indices must be integers")
    return OmegaSet(
        region=Region(tuple(d["region"])),
        indices=indices,
        parent_size=int(d["parent_size"]),
        row_kind=kind,
        factors=tuple(Region(tuple(f)) for f in d["factors"])
        if kind == "omega-product"
        else None,
        dims=tuple(d["dims"]) if kind == "omega-product" else None,
    )


def _key_to_json(key):
    if isinstance(key, Region):
        return list(key.locations)
    return [_key_to_json(c) for c in key]


def _key_from_json(node):
    # a region is a list of ints; a grouping must be in normalize_key form:
    # two or more keys, pairwise disjoint, ordered by least location (the
    # children are checked already, so one level is checked here)
    if isinstance(node, list) and node and all(type(x) is int for x in node):
        return Region(node)
    if not isinstance(node, list) or len(node) < 2:
        raise ValueError(f"a key must list locations or two or more keys, got {node!r}")
    key = tuple(map(_key_from_json, node))
    unions = [key_union(k).locations for k in key]
    if unions != sorted(unions) or len(key_union(key)) != sum(map(len, unions)):
        raise ValueError(f"grouping {node!r} is not disjoint and in canonical order")
    return key


def causaloid_to_dict(causaloid: Causaloid) -> dict:
    elementary = []
    for entry in causaloid.elementary:
        elementary.append(
            {
                "region": list(entry.region.locations),
                "labels": [
                    [list(a), list(s)] for a, s in entry.gamma.labels
                ],
                "omega": _omega_to_dict(entry.omega),
                "matrix_hex": matrix_hex(entry.matrix),
            }
        )
    composites = []
    for key, entry in causaloid.composites:
        composites.append(
            {
                "key": _key_to_json(key),
                "factor_omegas": [_omega_to_dict(o) for o in entry.factor_omegas],
                "omega": _omega_to_dict(entry.omega),
                "matrix_hex": matrix_hex(entry.matrix),
            }
        )
    deduced = []
    for stub in causaloid.deduced:
        deduced.append(
            {
                "key": _key_to_json(stub.key),
                "rule": stub.rule,
                "factor_omegas": [_omega_to_dict(o) for o in stub.factor_omegas],
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "kind": "causaloid",
        "regions": [list(r.locations) for r in causaloid.regions],
        "elementary": elementary,
        "composites": composites,
        "deduced": deduced,
        "rules": list(causaloid.rules),
    }


def causaloid_from_dict(doc: dict) -> Causaloid:
    if not isinstance(doc, dict):
        raise SchemaError("a causaloid document must be a JSON object")
    try:
        if doc.get("kind") != "causaloid":
            raise SchemaError("document kind is not 'causaloid'")
        if doc.get("format_version") != FORMAT_VERSION:
            raise SchemaError(
                f"unsupported format_version {doc.get('format_version')!r}"
            )
        regions = tuple(Region(tuple(r)) for r in doc["regions"])
        elementary = []
        for item in doc["elementary"]:
            gamma = GammaSet(
                Region(tuple(item["region"])),
                tuple((tuple(a), tuple(s)) for a, s in item["labels"]),
            )
            elementary.append(
                TomographicLambda(
                    gamma=gamma,
                    omega=_omega_from_dict(item["omega"]),
                    matrix=_matrix_from_hex(item["matrix_hex"]),
                )
            )
        composites = []
        for item in doc["composites"]:
            factor_omegas = tuple(
                _omega_from_dict(o) for o in item["factor_omegas"]
            )
            entry = CompositionalLambda(
                factor_omegas=factor_omegas,
                omega=_omega_from_dict(item["omega"]),
                matrix=_matrix_from_hex(item["matrix_hex"]),
            )
            composites.append((_key_from_json(item["key"]), entry))
        deduced = tuple(
            DeducedEntry(
                key=_key_from_json(item["key"]),
                rule=item["rule"],
                factor_omegas=tuple(
                    _omega_from_dict(o) for o in item["factor_omegas"]
                ),
            )
            for item in doc.get("deduced", [])
        )
        return Causaloid(
            regions=regions,
            elementary=tuple(elementary),
            composites=tuple(composites),
            deduced=deduced,
            rules=tuple(doc.get("rules", [])),
        )
    # a key nested deeper than the interpreter's stack is malformed too
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise SchemaError(f"malformed causaloid document: {exc}") from exc


_escape = json.encoder.encode_basestring_ascii
_INDENT = "  "


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With ``indent`` set, CPython's json leaves its C encoder and writes
    every value from Python. Here a list whose items are all strings (a
    ``matrix_hex`` row) is one ``str.join`` over json's C string escaper;
    every other value is written one element at a time, as json writes
    it: ``int.__repr__``, ``float.__repr__``, ``NaN``/``Infinity``,
    ``true``/``false``/``null``, tuples as lists, dict keys sorted and
    converted as json converts them. Anything json rejects for its type
    raises ``TypeError``. Containers that hold themselves are not
    detected.
    """
    parts: list[str] = []
    _write_json(value, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline: str, parts: list[str]) -> None:
    if isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + _INDENT
        try:
            parts.append("[" + inner + ("," + inner).join(map(_escape, value)) + newline + "]")
            return
        except TypeError:
            pass  # not all strings: one element at a time
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            sep = "," + inner
            _write_json(item, inner, parts)
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + _INDENT
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep + _json_key(key) + ": ")
            sep = "," + inner
            _write_json(item, inner, parts)
        parts.append(newline + "}")
    else:
        parts.append(_json_scalar(value))


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key) -> str:
    if isinstance(key, str):
        return _escape(key)
    if key is None or isinstance(key, (int, float)):
        # json quotes the scalar's text, which needs no escaping
        return '"' + _json_scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def save_causaloid(causaloid: Causaloid, path: str) -> None:
    write_text(path, json_text(causaloid_to_dict(causaloid)))


def load_causaloid(path: str) -> Causaloid:
    return causaloid_from_dict(read_json(path))
