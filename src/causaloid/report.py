"""End to end compression pipeline and its deterministic JSON report.

``run_pipeline`` executes the full chain for one scenario: one probability
table over the probed regions, per-region and grouped compression of it,
exterior span checks that take each region's rank from its fiducial set,
adjacency read from the registry with mediator diagnostics, and the
requested heralds. The report payload is a plain dict that serializes
byte-identically across runs: keys are sorted, floats carry an exact hex
companion, and matrices are summarized by sha256 digest (full hex rows
only on request).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import __version__
from .backends import (
    SpanValidation,
    build_prob_table,
    conditioning_span,
    validate_table_spans,
)
from .causaloid import Causaloid, build_causaloid, json_text, matrix_hex, matrix_hex_text
from .compositional import adjacency_graph
from .errors import write_text
from .heralding import HeraldResult, herald
from .operational import Region
from .scenario import ScenarioFile
from .tables import ProbTable
from .tomographic import CLAMP_TOL, clamp_probability

__all__ = [
    "CompressionReport",
    "run_pipeline",
    "report_json",
    "write_report",
]

REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class CompressionReport:
    """Pipeline products: the payload dict plus the live objects behind it."""

    scenario: ScenarioFile
    payload: dict
    table: ProbTable
    causaloid: Causaloid
    heralds: tuple[tuple[str, HeraldResult], ...]


def _lambda_fields(matrix, full_matrices: bool) -> dict:
    fields = {
        "lambda_shape": list(matrix.shape),
        "lambda_sha256": hashlib.sha256(matrix_hex_text(matrix)).hexdigest(),
    }
    if full_matrices:
        fields["lambda_hex"] = matrix_hex(matrix)
    return fields


def _float_pair(value: float) -> dict:
    return {"decimal": float(value), "hex": float(value).hex()}


def _key_names(scenario: ScenarioFile, key) -> list:
    if isinstance(key, Region):
        return scenario.name_of(key)  # type: ignore[return-value]
    return [_key_names(scenario, part) for part in key]


def span_rows(
    scenario: ScenarioFile, spans: tuple[SpanValidation, ...]
) -> list[dict]:
    """The report's ``span_validation`` rows, one per region."""
    # validate_table_spans returns a check only where the extended rank
    # equals the rank, so the two pinned fields below follow from that
    return [
        {
            "region": scenario.name_of(check.region),
            "locations": list(check.region.locations),
            "rank": check.rank,
            "extended_rank": check.rank,
            "exteriors": check.n_exteriors,
            "extended_exteriors": check.n_extended_exteriors,
            "stable": True,
        }
        for check in spans
    ]


def checked_causaloid(
    scenario: ScenarioFile,
) -> tuple[ProbTable, tuple[SpanValidation, ...], Causaloid]:
    """Build the scenario's table once, compress it, then check its spans."""
    table = build_prob_table(scenario.spec, scenario.regions)
    table.validate()
    causaloid = build_causaloid(
        table,
        composites=scenario.composites,
        tol_rank=scenario.tol_rank,
        tol_residual=scenario.tol_residual,
    )
    ranks = [causaloid.omega_of(r).size for r in table.regions]
    spans = validate_table_spans(scenario.spec, table, ranks, tol_rank=scenario.tol_rank)
    return table, spans, causaloid


def _elementary_section(
    scenario: ScenarioFile, causaloid: Causaloid, full_matrices: bool
) -> list[dict]:
    out = []
    for region in causaloid.regions:
        entry = causaloid.tomographic(region)
        item = {
            "region": scenario.name_of(region),
            "locations": list(region.locations),
            "gamma_size": entry.gamma.size,
            "omega_size": entry.omega.size,
            "omega_indices": list(entry.omega.indices),
            **_lambda_fields(entry.matrix, full_matrices),
        }
        out.append(item)
    return out


def _composite_section(
    scenario: ScenarioFile, causaloid: Causaloid, full_matrices: bool
) -> list[dict]:
    out = []
    for key, entry in causaloid.composites:
        item = {
            "key": _key_names(scenario, key),
            "factors": [scenario.name_of(o.region) for o in entry.factor_omegas],
            "product_size": entry.product_size,
            "omega_size": entry.omega.size,
            "omega_indices": list(entry.omega.indices),
            "adjacent": entry.omega.size < entry.product_size,
            **_lambda_fields(entry.matrix, full_matrices),
        }
        out.append(item)
    return out


def _mediators(
    scenario: ScenarioFile, pair_locations: tuple[int, ...], cache: dict
) -> list[dict]:
    """Span diagnostics for every instrumented location outside the pair."""
    out = []
    for location in scenario.spec.locations():
        if location in pair_locations:
            continue
        if location not in cache:
            cache[location] = conditioning_span(scenario.spec, location)
        span, full = cache[location]
        out.append(
            {
                "location": location,
                "span": span,
                "full": full,
                "informationally_complete": span == full,
            }
        )
    return out


def _adjacency_section(
    scenario: ScenarioFile, causaloid: Causaloid, table: ProbTable
) -> dict | None:
    if len(scenario.regions) < 2:
        return None
    graph = adjacency_graph(causaloid, table, tol=scenario.tol_rank)
    mediator_spans: dict = {}  # conditioning_span per location, shared by the pairs
    pairs = []
    for pair in graph.pairs:
        locs = pair.first.locations + pair.second.locations
        pairs.append(
            {
                "first": scenario.name_of(pair.first),
                "second": scenario.name_of(pair.second),
                "composite_size": pair.composite_size,
                "product_size": pair.product_size,
                "adjacent": pair.adjacent,
                "mediators": _mediators(scenario, locs, mediator_spans),
            }
        )
    return {
        "regions": [scenario.name_of(r) for r in causaloid.regions],
        "edges": [[scenario.name_of(a), scenario.name_of(b)] for a, b in graph.edges],
        "pairs": pairs,
    }


def _herald_section(
    scenario: ScenarioFile,
    results: tuple[tuple[str, HeraldResult], ...],
) -> list[dict]:
    out = []
    for name, result in results:
        item = {
            "name": name,
            "well_defined": result.well_defined,
            "residual": _float_pair(result.residual),
            "p": None,
            "witness": None,
        }
        if result.p is not None:
            shown = result.p
            if -CLAMP_TOL <= shown <= 1 + CLAMP_TOL:
                shown = clamp_probability(shown)
            item["p"] = {"raw": _float_pair(result.p), "display": shown}
        if result.witness is not None:
            (hi_ext, hi_p), (lo_ext, lo_p) = result.witness
            item["witness"] = {
                "high": {"exterior": hi_ext.describe(), "p": _float_pair(hi_p)},
                "low": {"exterior": lo_ext.describe(), "p": _float_pair(lo_p)},
                "spread": _float_pair(hi_p - lo_p),
            }
        out.append(item)
    return out


def run_pipeline(
    scenario: ScenarioFile, *, full_matrices: bool = False
) -> CompressionReport:
    """Run both compression levels, span checks, adjacency, and heralds.

    The tolerances are the scenario's own; to change one, pass a
    ``dataclasses.replace`` copy of the scenario. Errors from any stage
    propagate unchanged; nothing in the report is emitted on failure.
    """
    table, spans, causaloid = checked_causaloid(scenario)
    herald_results = tuple(
        (spec.name, herald(causaloid, spec.query, tol=scenario.tol_herald, table=table))
        for spec in scenario.heralds
    )

    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "kind": "compression-report",
        "tool_version": __version__,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "theory": {
            "kind": scenario.spec.kind,
            "chains": [
                {
                    "name": chain.name,
                    "size": chain.size,
                    "locations": list(chain.locations),
                }
                for chain in scenario.spec.chains
            ],
        },
        "tolerances": {
            "rank": _float_pair(scenario.tol_rank),
            "residual": _float_pair(scenario.tol_residual),
            "herald": _float_pair(scenario.tol_herald),
        },
        "span_validation": span_rows(scenario, spans),
        "regions": _elementary_section(scenario, causaloid, full_matrices),
        "composites": _composite_section(scenario, causaloid, full_matrices),
        "adjacency": _adjacency_section(scenario, causaloid, table),
        "heralds": _herald_section(scenario, herald_results),
    }
    return CompressionReport(
        scenario=scenario,
        payload=payload,
        table=table,
        causaloid=causaloid,
        heralds=herald_results,
    )


def report_json(report: CompressionReport) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json_text(report.payload)


def write_report(report: CompressionReport, path) -> None:
    write_text(path, report_json(report))
