"""The causaloid registry: every region's expansion data in one object.

The registry holds one tomographic entry per probed region and one
compositional entry per requested grouping, plus deduction rules that let
some groupings be stored as stubs instead of full matrices. Everything
downstream (products, joint evaluation, heralding) reads from here.
"""
from __future__ import annotations

import base64
import functools
import itertools
import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .compositional import (
    CompositionalLambda, fiducial_rows_matrix, product_leaf_rows, product_rows
)
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
from .operational import Region, disjoint_union
from .tables import GammaSet, Label, ProbTable
from .tomographic import (
    DEFAULT_RANK_TOL,
    DEFAULT_RESIDUAL_TOL,
    OmegaSet,
    RVector,
    StateVector,
    TomographicLambda,
    _row_set,
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
    "key_to_str",
    "key_union",
    "save_causaloid",
    "load_causaloid",
]

MAX_BASIS_CONDITION = 1e12
FORMAT_VERSION = 2


# a registry key is a Region (first-level entry) or a tuple of keys
# (grouping whose factors are the child keys, in canonical order: sorted
# by key_union)
def key_union(key) -> Region:
    """The region a key covers; ``ValueError`` if two factors overlap."""
    if isinstance(key, Region):
        return key
    return disjoint_union(map(key_union, key))


def normalize_key(spec) -> "Region | tuple":
    """Canonical nested-tuple form: disjoint factors sorted by least location."""
    if isinstance(spec, Region):
        return spec
    children = tuple(normalize_key(c) for c in spec)
    if len(children) < 2:
        raise ValueError("a grouping needs at least two factors")
    key_union(children)
    return tuple(sorted(children, key=key_union))


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
    ``omega`` gives the fiducial set the deduced entry will have, without
    deducing it; ``deduce`` rebuilds the entry from the stub's factor
    fiducial sets.
    """

    drops: Callable[[CompositionalLambda], bool]
    omega: Callable[[DeducedEntry], OmegaSet]
    deduce: Callable[[DeducedEntry], CompositionalLambda]


def _tensor_drops(entry: CompositionalLambda) -> bool:
    # full product row set: the expansion is forced to the identity
    return entry.omega.size == entry.omega.parent_size


def _tensor_omega(stub: DeducedEntry) -> OmegaSet:
    # the one row set listing every row: a deduced fiducial set keeps them all
    rows = product_rows(stub.factor_omegas)
    return replace(rows, indices=tuple(range(rows.parent_size)))


def _tensor_deduce(stub: DeducedEntry) -> CompositionalLambda:
    omega = _tensor_omega(stub)
    return CompositionalLambda(stub.factor_omegas, omega, np.eye(omega.parent_size))


RULE_REGISTRY: dict[str, MetaRule] = {
    "tensor-factorization": MetaRule(_tensor_drops, _tensor_omega, _tensor_deduce),
}


@dataclass(frozen=True, eq=False)
class Causaloid:
    """Immutable registry of expansion entries for one scenario.

    Every lookup reads one index from key to entry, built at construction
    in ``keys()`` order: regions, composites, then stubs; a product reads
    one index from factor fiducial sets to grouped key. A stub stands in
    for its entry until first use, when the deduced entry replaces it.
    """

    regions: tuple[Region, ...]
    elementary: tuple[TomographicLambda, ...]
    composites: tuple[tuple[tuple, CompositionalLambda], ...] = ()
    deduced: tuple[DeducedEntry, ...] = ()
    rules: tuple[str, ...] = ()

    def __post_init__(self):
        if list(self.regions) != sorted(self.regions):
            raise ValueError("regions must be in canonical order")
        disjoint_union(self.regions)
        if tuple(e.region for e in self.elementary) != self.regions:
            raise ValueError("one first-level entry per region, in order")
        for name in self.rules:
            if name not in RULE_REGISTRY:
                raise RuleInapplicable(f"rule {name!r} is not registered")
        grouped = self.composites + tuple((d.key, d) for d in self.deduced)
        index = dict(zip(self.regions, self.elementary))
        index.update(grouped)
        if len(index) != len(self.regions) + len(grouped):
            raise ValueError("registry keys must be unique")
        object.__setattr__(self, "_index", index)
        # a product reads the grouped entry over its factors' fiducial sets;
        # the first key listed with those sets answers it
        by_factors: dict = {}
        for key, entry in grouped:
            by_factors.setdefault(entry.factor_omegas, key)
        object.__setattr__(self, "_by_factors", by_factors)
        for key, _ in grouped:
            for child in key:
                if child not in index:
                    raise MissingEntry(
                        f"factor {key_to_str(child)} of {key_to_str(key)} "
                        "has no registry entry"
                    )
        # a stub carries its factors' fiducial sets as an entry does; each is
        # checked before a grouping over it reads the stub's fiducial set
        # from its rule, so no stub is deduced here and none is sized by
        # what it declares
        for key, entry in sorted(grouped, key=lambda item: len(key_union(item[0]))):
            if entry.factor_omegas != tuple(self.omega_of(child) for child in key):
                raise ContextMismatch(
                    f"entry {key_to_str(key)} disagrees with its factors' "
                    "fiducial sets"
                )

    # -- lookups ---------------------------------------------------------

    def tomographic(self, region: Region) -> TomographicLambda:
        if not isinstance(region, Region) or region not in self._index:
            raise UnknownRegion(f"no first-level entry for {region}")
        return self._index[region]

    def entry(self, key):
        """Resolve a key to its entry; a stub is deduced on first use."""
        if isinstance(key, Region):
            return self.tomographic(key)
        found = self._index.get(key)
        if found is None:
            raise MissingEntry(f"no registry entry for {key_to_str(key)}")
        if isinstance(found, DeducedEntry):
            found = self._index[key] = RULE_REGISTRY[found.rule].deduce(found)
        return found

    def omega_of(self, key) -> OmegaSet:
        """The fiducial set of a key's entry; a stub's is read from its rule,
        which leaves the stub undeduced."""
        found = self._index.get(key)
        if isinstance(found, DeducedEntry):
            return RULE_REGISTRY[found.rule].omega(found)
        return self.entry(key).omega

    def keys(self) -> tuple:
        return tuple(self._index)

    def product_entry(self, contexts: Sequence[OmegaSet]) -> CompositionalLambda:
        """The grouped entry whose factor fiducial sets are ``contexts``."""
        contexts = tuple(contexts)
        key = self._by_factors.get(contexts)
        if key is not None:
            return self.entry(key)
        names = ", ".join(str(o.region) for o in contexts)
        raise MissingEntry(
            f"no stored entry or rule covers the grouping ({names})"
        )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _leaf_rows(entries: dict, key) -> tuple[tuple[Region, ...], np.ndarray]:
    """Per fiducial element of ``key``: one gamma row index per leaf region."""
    omega = entries[key].omega
    if isinstance(key, Region):
        return (key,), np.array(omega.indices, dtype=np.intp)[:, None]
    return product_leaf_rows(
        [_leaf_rows(entries, child) for child in key], omega.indices, omega.dims
    )


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
    regions = tuple(sorted(table.regions))
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
    if _row_set(new_omega) != _row_set(old):
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

def hybrid_product(causaloid: Causaloid, factors: Sequence[RVector]) -> RVector:
    """The registry-mediated product of measurement vectors.

    The factors are put in canonical order (least location first), their
    components multiplied out (last factor fastest) and contracted with the
    grouped entry whose factor fiducial sets are their contexts. Component
    k of the result sums the product of one component per factor times
    that entry's row for those components, column k; a full product row
    set gives the plain outer product. One factor is returned as it is.
    """
    ordered = sorted(factors, key=lambda r: r.context.region)
    if len(ordered) == 1:
        return ordered[0]
    entry = causaloid.product_entry(tuple(r.context for r in ordered))
    w = ordered[0].components
    for r in ordered[1:]:
        w = np.multiply.outer(w, r.components)
    return RVector(context=entry.omega, components=w.reshape(-1) @ entry.matrix)


def causaloid_product(r1: RVector, r2: RVector, causaloid: Causaloid) -> RVector:
    """Compose two measurement vectors, in either order, through the registry."""
    return hybrid_product(causaloid, [r1, r2])


def joint_r_vector(causaloid: Causaloid, labels: Sequence[Label]) -> RVector:
    """The joint measurement vector of one label per scenario region."""
    if len(labels) != len(causaloid.regions):
        raise ContextMismatch("one label per scenario region is required")
    factors = [
        r_vector(lab, causaloid.tomographic(r))
        for r, lab in zip(causaloid.regions, labels)
    ]
    return hybrid_product(causaloid, factors)


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
    grouped = sorted((k for k in causaloid.keys() if isinstance(k, tuple)), key=key_union)
    return Causaloid(
        regions=causaloid.regions,
        elementary=causaloid.elementary,
        composites=tuple((key, causaloid.entry(key)) for key in grouped),
        deduced=(),
        rules=causaloid.rules,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# what comes before an entry's opening quote: nothing, a comma, or the
# end of the previous row and the start of this one
_HEX_SEPARATORS = (b"", b",", b"],[")


def _word(text: bytes) -> int:
    # up to 8 bytes as one little-endian word, NUL-padded
    return int.from_bytes(text, "little")


@functools.cache
def _hex_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the words an entry's record is built from, made on first use rather
    # than at import: its lead (separator, quote, sign, "0") indexed by
    # 2 * separator + sign bit, "x0." or "x1." by whether the exponent
    # field is nonzero, and its tail ("p-1022" for field 0, then the
    # closing quote) by the exponent field
    leads = np.array(
        [_word(sep + b'"' + sign + b"0") for sep in _HEX_SEPARATORS for sign in (b"", b"-")],
        dtype="<u8",
    )
    points = np.array([_word(b"x0."), _word(b"x1.")], dtype="<u8")
    tails = np.array(
        [_word(b'p-1022"')] + [_word(b'p%+d"' % (e - 1023)) for e in range(1, 2048)],
        dtype="<u8",
    )
    return leads, points, tails


def matrix_hex_text(matrix: np.ndarray) -> bytes:
    """The compact JSON text of ``matrix_hex`` rows, ASCII encoded.

    This is ``json.dumps(matrix_hex(matrix), separators=(",", ":"))``, the
    text a report's ``lambda_sha256`` digests, except that a matrix with
    no columns writes ``[""]`` per row. It is built from the float64 bits
    without a Python string per entry: each entry is one record of four
    NUL-padded words (lead, the 16 hex digits of the mantissa field with
    "x0." or "x1." over their 3 leading zeros, tail), and the NULs are
    dropped at the end.
    """
    values = np.ascontiguousarray(matrix, dtype="<f8")
    m, w = values.shape
    if values.size == 0:
        return b"[" + b",".join([b'[""]'] * m) + b"]"
    bits = values.reshape(-1).view("<u8")
    sign = bits >> np.uint64(63)
    field = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    leads, points, tails = _hex_words()
    words = np.empty((bits.size, 4), dtype="<u8")
    words[:, 0] = leads[2 + sign]
    words[::w, 0] = leads[4 + sign[::w]]
    words[0, 0] = leads[sign[0]]
    digits = (bits & np.uint64((1 << 52) - 1)).astype(">u8").tobytes().hex()
    words[:, 1:3] = np.frombuffer(digits.encode("ascii"), dtype="<u8").reshape(-1, 2)
    words[:, 1] &= np.uint64(0xFFFF_FFFF_FF00_0000)
    words[:, 1] |= points[(field != 0).view(np.uint8)]
    words[:, 3] = tails[field]
    # float.hex writes a zero as 0x0.0p+0
    words[(bits << np.uint64(1)) == 0, 1:] = (_word(b"x0.0"), 0, _word(b'p+0"'))
    # inf and nan take float.hex's own text
    for i in np.flatnonzero(field == 0x7FF):
        sep = _HEX_SEPARATORS[0 if i == 0 else 2 if i % w == 0 else 1]
        text = sep + b'"' + float(values.flat[i]).hex().encode("ascii")
        words[i] = (_word(text), 0, 0, _word(b'"'))
    return b"[[" + words.tobytes().translate(None, b"\0") + b"]]"


def matrix_hex(matrix: np.ndarray) -> list[list[str]]:
    """Exact float hex strings, row by row: ``float.hex`` of each entry."""
    return [list(map(float.hex, row)) for row in np.asarray(matrix, dtype=float).tolist()]


def _matrix_to_b64(matrix: np.ndarray) -> str:
    # the row-major little-endian float64 bytes: every bit, NaN payloads too
    return base64.b64encode(np.asarray(matrix, dtype="<f8").tobytes()).decode("ascii")


def _matrix_from_b64(text: str, omega: OmegaSet) -> np.ndarray:
    # the shape is the fiducial set's
    data = base64.b64decode(text, validate=True)
    shape = (omega.parent_size, omega.size)
    if len(data) != 8 * shape[0] * shape[1]:
        raise ValueError(f"matrix_f64le_b64 holds {len(data)} bytes, not 8 x {shape}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


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


def _int(value) -> int:
    # under ==, JSON true equals 1 (and 8.0 equals 8), so the re-save
    # comparison cannot tell them apart; this is what keeps them out
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _omega_from_dict(d: dict) -> OmegaSet:
    product = d["row_kind"] == "omega-product"
    return OmegaSet(
        region=Region(d["region"]),
        indices=tuple(map(_int, d["indices"])),
        parent_size=_int(d["parent_size"]),
        row_kind=d["row_kind"],
        factors=tuple(map(Region, d["factors"])) if product else None,
        dims=tuple(map(_int, d["dims"])) if product else None,
    )


def _key_to_json(key):
    if isinstance(key, Region):
        return list(key.locations)
    return [_key_to_json(c) for c in key]


def _key_from_json(node):
    # a list of locations is a region, any other list a grouping of keys
    if not isinstance(node, list):
        raise ValueError(f"a key must be a list, got {node!r}")
    if all(type(x) is int for x in node):
        return Region(node)
    return tuple(map(_key_from_json, node))


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
                "matrix_f64le_b64": _matrix_to_b64(entry.matrix),
            }
        )
    composites = []
    for key, entry in causaloid.composites:
        composites.append(
            {
                "key": _key_to_json(key),
                "factor_omegas": [_omega_to_dict(o) for o in entry.factor_omegas],
                "omega": _omega_to_dict(entry.omega),
                "matrix_f64le_b64": _matrix_to_b64(entry.matrix),
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
    """Read a registry document; it loads only if it re-saves as itself.

    Every field is decoded by the constructor that normalises it (regions
    sort their locations, keys their factors) and the registry is built
    from them; ``causaloid_to_dict`` of the result must then equal ``doc``,
    so a document that loads is saved again with the same bytes. A field
    that cannot be decoded is a ``SchemaError``, as is a document the
    comparison refuses, named by its first top-level field that differs;
    entries that disagree with each other raise the registry's own errors
    (``ContextMismatch``, ``MissingEntry``).
    """
    if not isinstance(doc, dict):
        raise SchemaError("a causaloid document must be a JSON object")
    try:
        if doc.get("kind") != "causaloid":
            raise SchemaError("document kind is not 'causaloid'")
        version = doc.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise SchemaError(f"unsupported format_version {version!r}")
        elementary = []
        for item in doc["elementary"]:
            gamma = GammaSet(
                Region(item["region"]),
                tuple(
                    (tuple(map(_int, a)), tuple(map(_int, s))) for a, s in item["labels"]
                ),
            )
            omega = _omega_from_dict(item["omega"])
            matrix = _matrix_from_b64(item["matrix_f64le_b64"], omega)
            elementary.append(TomographicLambda(gamma=gamma, omega=omega, matrix=matrix))
        composites = []
        for item in doc["composites"]:
            factor_omegas = tuple(
                _omega_from_dict(o) for o in item["factor_omegas"]
            )
            omega = _omega_from_dict(item["omega"])
            entry = CompositionalLambda(
                factor_omegas=factor_omegas,
                omega=omega,
                matrix=_matrix_from_b64(item["matrix_f64le_b64"], omega),
            )
            composites.append((normalize_key(_key_from_json(item["key"])), entry))
        deduced = [
            DeducedEntry(
                key=normalize_key(_key_from_json(item["key"])),
                rule=item["rule"],
                factor_omegas=tuple(_omega_from_dict(o) for o in item["factor_omegas"]),
            )
            for item in doc["deduced"]
        ]
        causaloid = Causaloid(
            regions=tuple(map(Region, doc["regions"])),
            elementary=tuple(elementary),
            composites=tuple(composites),
            deduced=tuple(deduced),
            rules=tuple(doc["rules"]),
        )
        saved = causaloid_to_dict(causaloid)
        if saved != doc:
            # decoding read every key saved has, so doc has them all
            field = next(k for k in (*saved, *doc) if k not in saved or saved[k] != doc[k])
            raise SchemaError(f"malformed causaloid document: {field} does not re-save as itself")
    # a key nested deeper than the interpreter's stack is malformed too, as
    # is a rule name the document gives that is not registered
    except (KeyError, TypeError, ValueError, RecursionError, RuleInapplicable) as exc:
        raise SchemaError(f"malformed causaloid document: {exc}") from exc
    return causaloid


def json_text(value) -> str:
    """The one JSON text policy: indent 2, sorted keys, a final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def save_causaloid(causaloid: Causaloid, path: str) -> None:
    write_text(path, json_text(causaloid_to_dict(causaloid)))


def load_causaloid(path: str) -> Causaloid:
    return causaloid_from_dict(read_json(path))
