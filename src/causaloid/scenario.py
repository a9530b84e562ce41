"""Scenario files: a strict JSON schema describing one arrangement.

A scenario names the theory (chains plus instrument families), the probed
regions, the composite groupings to compress, and the heralding queries to
run. Parsing is strict: unknown keys, undeclared references, and
out-of-range indices are schema errors that name the offending path.
"""
from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass

from . import backends
from .backends import ClassicalSpec, QuantumSpec, TheorySpec, enumerate_labels
from .causaloid import key_to_str, key_union, normalize_key
from .errors import BackendError, SchemaError, read_json
from .heralding import DEFAULT_HERALD_TOL, HeraldQuery
from .operational import Region
from .operators import MAX_QUANTUM_DIM
from .tomographic import DEFAULT_RANK_TOL, DEFAULT_RESIDUAL_TOL

__all__ = [
    "HeraldSpec",
    "ScenarioFile",
    "parse_scenario",
    "parse_scenario_dict",
]

SCENARIO_FORMAT_VERSION = 1

_TOP_KEYS = {
    "format_version",
    "name",
    "seed",
    "theory",
    "regions",
    "composites",
    "heralds",
    "tolerances",
}
_THEORY_KEYS = {"kind", "chains", "instruments"}
_CHAIN_KEYS = {"name", "size", "locations"}
_TOL_KEYS = {"rank", "residual", "herald"}
_HERALD_KEYS = {"name", "target", "given"}
# Each instrument family: the theory kind it needs, its list parameters as
# (key, element types, what the list holds), and its builder, called with
# the location, the chain size and each parameter's list in turn.
_FAMILIES = {
    "polariser": (
        "quantum",
        (("angles_deg", (int, float), "numbers"),),
        lambda location, size, angles: backends.polariser_family(location, angles),
    ),
    "probe_reprepare": ("quantum", (), backends.probe_reprepare_family),
    "unitaries": ("quantum", (("names", str, "names"),), backends.unitary_family),
    "probe_reset": ("classical", (), backends.probe_reset_family),
    "deterministic": ("classical", (("maps", str, "map names"),), backends.deterministic_family),
}


@dataclass(frozen=True)
class HeraldSpec:
    """One named heralding query, resolved against the scenario's labels."""

    name: str
    query: HeraldQuery


@dataclass(frozen=True, eq=False)
class ScenarioFile:
    """A parsed, validated scenario.

    ``composites`` holds each listed grouping in its ``normalize_key`` form,
    in the order listed.
    """

    name: str
    spec: TheorySpec
    region_names: tuple[str, ...]
    regions: tuple[Region, ...]
    composites: tuple[tuple, ...]
    heralds: tuple[HeraldSpec, ...]
    tol_rank: float
    tol_residual: float
    tol_herald: float
    seed: int

    def name_of(self, region: Region) -> str:
        for n, r in zip(self.region_names, self.regions):
            if r == region:
                return n
        return str(region)


def check_tolerance(value, path: str) -> None:
    """Raise a ``SchemaError`` at ``path`` unless ``value`` is a finite positive number."""
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        raise SchemaError("tolerance must be a finite positive number", path)


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"missing required key {key!r}", path)
    return obj[key]


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r}", path)


def _int_list(value, path: str) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in value
    ):
        raise SchemaError("expected a list of non-negative integers", path)
    return value


def _build_family(item: dict, location: int, size: int, path: str):
    family = _require(item, "family", path)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise SchemaError(f"unknown instrument family {family!r}", f"{path}.family")
    _, params, build = _FAMILIES[family]
    _check_keys(item, {"location", "family", *(key for key, _, _ in params)}, path)
    if family == "polariser" and size != 2:
        raise SchemaError(f"the polariser family needs a size-2 chain, not size {size}", path)
    lists = []
    for key, types, wording in params:
        value = _require(item, key, path)
        if not isinstance(value, list) or not all(
            isinstance(v, types) and not isinstance(v, bool) for v in value
        ):
            raise SchemaError(f"expected a list of {wording}", f"{path}.{key}")
        lists.append(value)
    return build(location, size, *lists)


def _build_theory(doc: dict, path: str) -> TheorySpec:
    _check_keys(doc, _THEORY_KEYS, path)
    kind = _require(doc, "kind", path)
    if kind not in ("classical", "quantum"):
        raise SchemaError(f"kind must be classical or quantum, got {kind!r}", f"{path}.kind")
    raw_chains = _require(doc, "chains", path)
    if not isinstance(raw_chains, list) or not raw_chains:
        raise SchemaError("expected a non-empty list of chains", f"{path}.chains")
    chains = []
    loc_to_size: dict[int, int] = {}
    for i, item in enumerate(raw_chains):
        cp = f"{path}.chains[{i}]"
        _check_keys(item, _CHAIN_KEYS, cp)
        name = _require(item, "name", cp)
        size = _require(item, "size", cp)
        locations = _int_list(_require(item, "locations", cp), f"{cp}.locations")
        if not locations:
            raise SchemaError("a chain needs at least one location", f"{cp}.locations")
        if not isinstance(name, str):
            raise SchemaError("chain name must be a string", f"{cp}.name")
        if not isinstance(size, int) or isinstance(size, bool) or size < 2:
            raise SchemaError("chain size must be an integer >= 2", f"{cp}.size")
        # a classical wire is bounded by the widest a quantum one may reach
        bound = MAX_QUANTUM_DIM if kind == "quantum" else MAX_QUANTUM_DIM**2
        if size > bound:
            raise SchemaError(f"a {kind} chain size must be at most {bound}", f"{cp}.size")
        for x in locations:
            if locations.count(x) > 1:
                raise SchemaError(
                    f"location {x} is repeated in the chain", f"{cp}.locations"
                )
            if x in loc_to_size:
                raise SchemaError(f"location {x} appears on two chains", f"{cp}.locations")
            loc_to_size[x] = size
        chains.append(backends.Chain(name, size, tuple(locations)))
    raw_instruments = _require(doc, "instruments", path)
    if not isinstance(raw_instruments, list):
        raise SchemaError("expected a list of instruments", f"{path}.instruments")
    families = []
    seen_locs: set[int] = set()
    for i, item in enumerate(raw_instruments):
        ip = f"{path}.instruments[{i}]"
        if not isinstance(item, dict):
            raise SchemaError("expected an object", ip)
        family_name = item.get("family")
        if isinstance(family_name, str) and family_name in _FAMILIES:
            needed = _FAMILIES[family_name][0]
            if needed != kind:
                raise SchemaError(
                    f"family {family_name!r} needs a {needed} theory", f"{ip}.family"
                )
        loc = _require(item, "location", ip)
        if not isinstance(loc, int) or isinstance(loc, bool):
            raise SchemaError("location must be an integer", f"{ip}.location")
        if loc not in loc_to_size:
            raise SchemaError(
                f"location {loc!r} is not on any declared chain", f"{ip}.location"
            )
        if loc in seen_locs:
            raise SchemaError(f"location {loc} is instrumented twice", f"{ip}.location")
        seen_locs.add(loc)
        try:
            families.append(_build_family(item, loc, loc_to_size[loc], ip))
        except BackendError as exc:
            raise SchemaError(str(exc), ip) from exc
    missing = sorted(set(loc_to_size) - seen_locs)
    if missing:
        raise SchemaError(
            f"locations {missing} have no instrument family", f"{path}.instruments"
        )
    families.sort(key=lambda f: f.location)
    preparations = tuple(
        backends.ic_preparations(kind, c.size) for c in chains
    )
    effects = tuple(backends.ic_effects(kind, c.size) for c in chains)
    cls = ClassicalSpec if kind == "classical" else QuantumSpec
    return cls(
        chains=tuple(chains),
        instruments=tuple(families),
        preparations=preparations,
        effects=effects,
    )


def _parse_composites(raw, names: dict[str, Region], path: str) -> tuple[tuple, ...]:
    """The groupings in their ``normalize_key`` form, in the order listed.

    Nesting is checked on each grouping as written, so an error names the
    factor's position in the file."""
    if not isinstance(raw, list):
        raise SchemaError("expected a list of groupings", path)

    # a grouping has two or more disjoint factors: at depth d it holds d + 1 regions
    def resolve(node, npath, depth):
        if isinstance(node, str):
            if node not in names:
                raise SchemaError(f"region {node!r} is not declared", npath)
            return names[node]
        if isinstance(node, list):
            if len(node) < 2:
                raise SchemaError("a grouping needs at least two factors", npath)
            if depth >= len(names):
                raise SchemaError(f"nested {depth} deep, needs {depth + 1} regions", npath)
            key = tuple(
                resolve(child, f"{npath}[{i}]", depth + 1) for i, child in enumerate(node)
            )
            try:
                key_union(key)
            except ValueError:
                raise SchemaError("grouping factors must be pairwise disjoint", npath) from None
            return key
        raise SchemaError("expected a region name or a nested grouping", npath)

    out = []
    for i, node in enumerate(raw):
        key = resolve(node, f"{path}[{i}]", 1)
        if isinstance(key, Region):
            raise SchemaError("a grouping needs at least two factors", f"{path}[{i}]")
        for j, child in enumerate(key):
            if isinstance(child, tuple) and normalize_key(child) not in out:
                raise SchemaError(
                    "an inner grouping must be listed before the grouping it is nested in",
                    f"{path}[{i}][{j}]",
                )
        out.append(normalize_key(key))
    return tuple(out)


def label_refs(spec: TheorySpec, names: dict[str, Region]) -> Callable:
    """A resolver ``label_ref(name, index, path)`` of label references: the
    region called ``name`` and its label number ``index``.

    Scenario heralds and the CLI's ``--target``/``--given`` resolve their
    references through one resolver per parse or command, which builds a
    region's label set on its first reference only; ``path`` is the JSON
    path or flag an error names.
    """
    gammas = {}

    def label_ref(name: str, index: int, path: str):
        if name not in names:
            raise SchemaError(f"region {name!r} is not declared", path)
        region = names[name]
        if name not in gammas:
            gammas[name] = enumerate_labels(spec, region)
        gamma = gammas[name]
        if not 0 <= index < gamma.size:
            raise SchemaError(
                f"label index {index} out of range for {name!r} (size {gamma.size})", path
            )
        return region, gamma.labels[index]

    return label_ref


def _parse_label_ref(node, label_ref: Callable, path: str):
    if (
        not isinstance(node, list)
        or len(node) != 2
        or not isinstance(node[0], str)
        or not isinstance(node[1], int)
        or isinstance(node[1], bool)
    ):
        raise SchemaError("expected [region_name, label_index]", path)
    return label_ref(node[0], node[1], path)


def herald_query(target, given, listed: set, path: str) -> HeraldQuery:
    """The query of ``target`` given ``given``, checked against ``listed``,
    the ``normalize_key`` of each of the scenario's composites.

    A herald over two or more regions reads the registry entry of their
    flat grouping, so that grouping must be listed. Scenario heralds and
    the CLI's ``herald`` build their queries here; ``path`` is the JSON
    path or flag an error names.
    """
    try:
        query = HeraldQuery.from_labels(target, given)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc
    named = query.named_regions
    if len(named) > 1 and named not in listed:
        raise SchemaError(f"the grouping {key_to_str(named)} is not listed in composites", path)
    return query


def _parse_heralds(raw, names, spec, listed: set, path: str) -> tuple[HeraldSpec, ...]:
    if not isinstance(raw, list):
        raise SchemaError("expected a list of herald queries", path)
    label_ref = label_refs(spec, names)
    out = []
    for i, item in enumerate(raw):
        hp = f"{path}[{i}]"
        _check_keys(item, _HERALD_KEYS, hp)
        name = _require(item, "name", hp)
        if not isinstance(name, str) or not name:
            raise SchemaError("herald name must be a non-empty string", f"{hp}.name")
        target = _parse_label_ref(_require(item, "target", hp), label_ref, f"{hp}.target")
        raw_given = item.get("given", [])
        if not isinstance(raw_given, list):
            raise SchemaError("expected a list of label references", f"{hp}.given")
        given = tuple(
            _parse_label_ref(node, label_ref, f"{hp}.given[{j}]")
            for j, node in enumerate(raw_given)
        )
        out.append(HeraldSpec(name, herald_query(target, given, listed, hp)))
    return tuple(out)


def parse_scenario_dict(doc: dict) -> ScenarioFile:
    """Validate a scenario document and build its theory objects."""
    _check_keys(doc, _TOP_KEYS, "$")
    version = _require(doc, "format_version", "$")
    if version != SCENARIO_FORMAT_VERSION:
        raise SchemaError(
            f"unsupported format_version {version!r}", "$.format_version"
        )
    name = _require(doc, "name", "$")
    if not isinstance(name, str) or not name:
        raise SchemaError("name must be a non-empty string", "$.name")
    spec = _build_theory(_require(doc, "theory", "$"), "$.theory")
    raw_regions = _require(doc, "regions", "$")
    if not isinstance(raw_regions, dict) or not raw_regions:
        raise SchemaError("expected a non-empty object of regions", "$.regions")
    instrumented = set(spec.locations())
    names: dict[str, Region] = {}
    used: set[int] = set()
    for rname, locs in raw_regions.items():
        rp = f"$.regions.{rname}"
        locations = _int_list(locs, rp)
        if not locations:
            raise SchemaError("a region needs at least one location", rp)
        for x in locations:
            if x not in instrumented:
                raise SchemaError(f"location {x} is not declared", rp)
            if locations.count(x) > 1:
                raise SchemaError(f"location {x} is repeated in the region", rp)
            if x in used:
                raise SchemaError(f"location {x} is in two regions", rp)
            used.add(x)
        names[rname] = Region(tuple(locations))
    composites = _parse_composites(doc.get("composites", []), names, "$.composites")
    heralds = _parse_heralds(doc.get("heralds", []), names, spec, set(composites), "$.heralds")
    tols = doc.get("tolerances", {})
    _check_keys(tols, _TOL_KEYS, "$.tolerances")
    for key, value in tols.items():
        check_tolerance(value, f"$.tolerances.{key}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SchemaError("seed must be an integer", "$.seed")
    return ScenarioFile(
        name=name,
        spec=spec,
        region_names=tuple(names),
        regions=tuple(names.values()),
        composites=composites,
        heralds=heralds,
        tol_rank=float(tols.get("rank", DEFAULT_RANK_TOL)),
        tol_residual=float(tols.get("residual", DEFAULT_RESIDUAL_TOL)),
        tol_herald=float(tols.get("herald", DEFAULT_HERALD_TOL)),
        seed=seed,
    )


def parse_scenario(path: str) -> ScenarioFile:
    """Read and validate one scenario file."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("the top level must be an object", path)
    return parse_scenario_dict(doc)
