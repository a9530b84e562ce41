"""Operational compression of probabilistic theories.

The package turns scenario descriptions (chains of systems, instrument
families at locations, probed regions) into compressed causaloids:
per-region fiducial sets with expansion matrices, grouped entries for
region unions, adjacency classification, and heralded conditional
probabilities for unperformed experiments. A deterministic CLI wraps the
pipeline.
"""
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .backends import (
    Chain,
    ClassicalSpec,
    InstrumentFamily,
    QuantumSpec,
    SpanValidation,
    TheorySpec,
    build_prob_table,
    complete_effect,
    conditioning_span,
    deterministic_family,
    enumerate_exteriors,
    enumerate_labels,
    ic_effects,
    ic_preparations,
    joint_prob,
    kernel_family,
    kraus_family,
    polariser_family,
    probe_reprepare_family,
    probe_reset_family,
    unitary_family,
    validate_exterior_span,
    validate_table_spans,
)
from .causaloid import (
    Causaloid,
    DeducedEntry,
    MetaRule,
    RULE_REGISTRY,
    build_causaloid,
    causaloid_from_dict,
    causaloid_product,
    causaloid_to_dict,
    change_omega_basis,
    evaluate_joint,
    expand,
    hybrid_product,
    joint_r_vector,
    key_to_str,
    key_union,
    load_causaloid,
    meta_compress,
    save_causaloid,
)
from .compositional import (
    AdjacencyGraph,
    CompositionalLambda,
    PairCompression,
    adjacency_graph,
    joint_fiducial_matrix,
)
from .diagram import (
    DiagramNode,
    DiagramScene,
    DiagramWire,
    born_scene,
    emit_diagram,
    expansion_scene,
    product_scene,
)
from .errors import (
    BackendError,
    CausaloidError,
    ContextMismatch,
    DegenerateExterior,
    DimensionMismatch,
    IncompleteTable,
    IoError,
    MissingEntry,
    ResidualTooLarge,
    RuleInapplicable,
    SchemaError,
    SingularTransform,
    SpanDeficient,
    TableTooLarge,
    UnknownEntry,
    UnknownExterior,
    UnknownLabel,
    UnknownProcedure,
    UnknownRegion,
    ZeroConditionCount,
    ZeroDenominator,
    ZeroDenominatorVector,
)
from .heralding import (
    HeraldQuery,
    HeraldResult,
    conditional_from_table,
    conditional_sweep,
    herald,
)
from .operational import (
    Card,
    EstimateResult,
    ProcedureSpec,
    Region,
    Stack,
    dump_stacks,
    estimate_prob,
    load_stacks,
    parse_stacks,
    sample_stacks,
)
from .report import (
    CompressionReport,
    report_json,
    run_pipeline,
    write_report,
)
from .scenario import HeraldSpec, ScenarioFile, parse_scenario, parse_scenario_dict
from .tables import (
    ExteriorAxis,
    ExteriorConfiguration,
    GammaSet,
    MeasurementMatrix,
    ProbTable,
)
from .tomographic import (
    OmegaSet,
    RVector,
    StateVector,
    TomographicLambda,
    born_rule,
    build_measurement_matrix,
    clamp_probability,
    find_fiducial_set,
    fold_to_exterior,
    r_vector,
    solve_expansion,
    state_vector,
)

# the submodules bound by the imports above are not exported
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
