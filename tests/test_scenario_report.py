"""Scenario documents, report pipeline, diagrams, and the command line."""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from causaloid import (
    Region,
    born_scene,
    build_causaloid,
    build_prob_table,
    emit_diagram,
    expansion_scene,
    product_scene,
    report_json,
    run_pipeline,
    write_report,
)
from causaloid.causaloid import load_causaloid, matrix_hex, matrix_hex_text
from causaloid import cli, errors
from causaloid.cli import main
from causaloid.diagram import DiagramNode, DiagramScene, DiagramWire, _layered
from causaloid.errors import (
    CausaloidError,
    DegenerateExterior,
    IoError,
    NumericalError,
    ResidualTooLarge,
    SchemaError,
    SingularTransform,
    SpanDeficient,
    UnknownEntry,
    ZeroDenominator,
    ZeroDenominatorVector,
)
from causaloid.operational import load_stacks
from causaloid.scenario import parse_scenario, parse_scenario_dict
from causaloid.tables import GammaSet

from conftest import SCENARIO_NAMES, scenario_path


def _doc(name):
    return json.loads(Path(scenario_path(name)).read_text())


# -- scenario parsing ------------------------------------------------------

def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        parse_scenario(str(tmp_path / "nope.json"))


def test_invalid_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"name\": ,\n}")
    with pytest.raises(SchemaError) as err:
        parse_scenario(str(bad))
    assert ":2:11:" in str(err.value)  # file:line:column prefix
    assert "not valid JSON" in str(err.value)


# not UTF-8 at byte 9, and nested deeper than the JSON decoder can follow
def _not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": \xff\xfe}')
    return path


def _too_deep(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    return path


READERS = {"parse_scenario": parse_scenario, "load_causaloid": load_causaloid,
           "load_stacks": load_stacks}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_non_utf8_file_is_a_schema_error(tmp_path, reader):
    path = _not_utf8(tmp_path)
    with pytest.raises(SchemaError) as err:
        READERS[reader](str(path))
    assert str(err.value) == f"{path}: not UTF-8 text at byte 9"


@pytest.mark.parametrize("reader", ["load_causaloid", "parse_scenario"])
def test_too_deeply_nested_json_is_a_schema_error(tmp_path, reader):
    path = _too_deep(tmp_path)
    with pytest.raises(SchemaError) as err:
        READERS[reader](str(path))
    assert str(err.value) == f"{path}: JSON nested too deeply to decode"


@pytest.mark.parametrize("make", [_not_utf8, _too_deep])
def test_cli_unreadable_scenario_exits_2(tmp_path, capsys, make):
    path = make(tmp_path)
    assert main(["validate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_composites_nest_no_deeper_than_the_regions_allow():
    # three regions allow one nested grouping: ((R1 x R2) x R3), listed after
    # its inner grouping in either factor order
    doc = _doc("polariser_chain")
    # its heralds need flat groupings that these composites leave out
    doc["heralds"] = []
    doc["composites"] = [["R2", "R1"], ["R3", ["R1", "R2"]]]
    assert len(parse_scenario_dict(doc).composites) == 2
    node = ["R1", "R2"]
    for _ in range(500):
        node = ["R3", node]
    doc["composites"] = [node]
    with pytest.raises(SchemaError) as err:
        parse_scenario_dict(doc)
    assert err.value.path == "$.composites[0][1][1]"


def test_unknown_top_level_key():
    doc = _doc("classical_bit")
    doc["bogus"] = 1
    with pytest.raises(SchemaError) as err:
        parse_scenario_dict(doc)
    assert err.value.path == "$"
    assert "bogus" in str(err.value)


def test_unsupported_format_version():
    doc = _doc("classical_bit")
    doc["format_version"] = 7
    with pytest.raises(SchemaError) as err:
        parse_scenario_dict(doc)
    assert err.value.path == "$.format_version"


def test_family_requires_matching_theory_kind():
    doc = _doc("classical_bit")
    doc["theory"]["instruments"][0] = {
        "location": 1,
        "family": "polariser",
        "angles_deg": [0, 45],
    }
    with pytest.raises(SchemaError) as err:
        parse_scenario_dict(doc)
    assert err.value.path.endswith(".family")


def test_region_location_collision():
    doc = _doc("adjacent_gates")
    doc["regions"]["R2"] = [1]
    with pytest.raises(SchemaError) as err:
        parse_scenario_dict(doc)
    assert "two regions" in str(err.value)


def test_undeclared_region_in_composites():
    doc = _doc("spacelike_bits")
    doc["composites"] = [["R1", "R9"]]
    with pytest.raises(SchemaError) as err:
        parse_scenario_dict(doc)
    assert "'R9'" in str(err.value)


def test_herald_label_out_of_range():
    doc = _doc("polariser_chain")
    doc["heralds"][0]["target"] = ["R2", 99]
    with pytest.raises(SchemaError) as err:
        parse_scenario_dict(doc)
    assert "out of range" in str(err.value)


# -- the report pipeline ---------------------------------------------------

def test_report_is_byte_deterministic(scenarios):
    s = scenarios("polariser_chain")
    a = report_json(run_pipeline(s))
    b = report_json(run_pipeline(s))
    assert a == b
    assert a.endswith("\n")
    payload = json.loads(a)
    assert payload["kind"] == "compression-report"
    assert payload["format_version"] == 1


def test_full_matrices_round_trip_digest(scenarios):
    s = scenarios("classical_bit")
    payload = run_pipeline(s, full_matrices=True).payload
    item = payload["regions"][0]
    assert "lambda_hex" in item
    blob = json.dumps(item["lambda_hex"], separators=(",", ":")).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == item["lambda_sha256"]
    lean = run_pipeline(s).payload
    assert "lambda_hex" not in lean["regions"][0]
    assert lean["regions"][0]["lambda_sha256"] == item["lambda_sha256"]


_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1.7976931348623157e308, -1.7976931348623157e308, 1e300, 1 / 3,
    math.inf, -math.inf, math.nan,
])
_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    hnp.arrays(np.float64, _SHAPES, elements=st.floats(allow_nan=False) | _EDGE_FLOATS)
    | hnp.arrays(np.int64, _SHAPES),
    st.booleans(),
)
def test_matrix_digest_matches_the_json_definition(matrix, transpose):
    # the reference definition of a report digest: sha256 of the compact
    # json.dumps text of each entry's float.hex, row by row
    if transpose:
        matrix = matrix.T
    rows = [[float(x).hex() for x in row] for row in matrix]
    blob = json.dumps(rows, separators=(",", ":")).encode("ascii")
    assert matrix_hex(matrix) == rows
    assert matrix_hex_text(matrix) == blob
    back = np.array([[float.fromhex(x) for x in row] for row in matrix_hex(matrix)])
    want = np.ascontiguousarray(matrix, dtype=float)
    assert back.shape == want.shape
    assert np.array_equal(back.view(np.uint64), want.view(np.uint64))


def test_matrix_hex_matches_float_hex_at_every_exponent():
    # every (sign, exponent field) pair as float64 bits, each with a zero
    # and two seeded random mantissas: subnormals, +-0, inf and nan included
    rng = np.random.default_rng(25)
    top = np.arange(4096, dtype=np.uint64) << np.uint64(52)
    mantissas = rng.integers(1, 1 << 52, size=(4096, 2), dtype=np.uint64)
    matrix = np.column_stack([top, top | mantissas[:, 0], top | mantissas[:, 1]]).view(np.float64)
    for m in (matrix, matrix.T):
        rows = [[float(x).hex() for x in row] for row in m]
        blob = json.dumps(rows, separators=(",", ":")).encode("ascii")
        assert matrix_hex(m) == rows
        assert matrix_hex_text(m) == blob


def test_matrix_digest_of_no_columns_is_pinned():
    # a Λ with no columns digests '[""]' per row, as it always has
    assert matrix_hex(np.zeros((3, 0))) == [[], [], []]
    assert hashlib.sha256(matrix_hex_text(np.zeros((3, 0)))).hexdigest() == (
        "8f447bb86b7f17e654d568668127830260bb1c999145f899a24b5de9e58c8c80"
    )


def test_tolerance_overrides(scenarios):
    s = scenarios("classical_bit")
    payload = run_pipeline(dataclasses.replace(s, tol_herald=0.5)).payload
    assert payload["tolerances"]["herald"]["decimal"] == 0.5


def test_report_heralds_section(pipelines):
    payload = pipelines("polariser_chain").payload
    by_name = {h["name"]: h for h in payload["heralds"]}
    good = by_name["middle-pass-given-outer-passes"]
    assert good["well_defined"] is True
    assert good["p"]["raw"]["decimal"] == pytest.approx(0.9, abs=1e-9)
    assert 0.0 <= good["p"]["display"] <= 1.0
    bad = by_name["last-pass-given-first-pass"]
    assert bad["well_defined"] is False
    spread = bad["witness"]["spread"]["decimal"]
    assert spread == pytest.approx(1.0, abs=1e-9)
    hi = bad["witness"]["high"]["p"]["decimal"]
    lo = bad["witness"]["low"]["p"]["decimal"]
    assert hi - lo == pytest.approx(spread, abs=1e-12)


def test_report_adjacency_section(pipelines):
    payload = pipelines("polariser_chain").payload
    adj = payload["adjacency"]
    assert adj["edges"] == [["R1", "R2"], ["R2", "R3"]]
    sizes = {
        (p["first"], p["second"]): (p["composite_size"], p["product_size"])
        for p in adj["pairs"]
    }
    assert sizes[("R1", "R2")] == (9, 25)
    assert sizes[("R1", "R3")] == (25, 25)
    assert sizes[("R2", "R3")] == (9, 25)
    mediated = {
        (p["first"], p["second"]): p["mediators"] for p in adj["pairs"]
    }[("R1", "R3")]
    assert mediated == [
        {"location": 2, "span": 5, "full": 16, "informationally_complete": False}
    ]


def test_write_report_failure(tmp_path, scenarios):
    s = scenarios("classical_bit")
    report = run_pipeline(s)
    with pytest.raises(IoError):
        write_report(report, str(tmp_path / "no" / "dir" / "r.json"))


# -- diagrams --------------------------------------------------------------

@pytest.fixture(scope="module")
def small_causaloid(scenarios):
    s = scenarios("spacelike_bits")
    table = build_prob_table(s.spec, s.regions)
    return s, build_causaloid(table, s.composites)


def test_diagram_emission_is_deterministic(small_causaloid):
    s, c = small_causaloid
    r1, r2 = s.regions
    for scene in (born_scene(c, r1), expansion_scene(c, r1), product_scene(c, r1, r2)):
        dot = emit_diagram(scene, "dot")
        assert dot == emit_diagram(scene, "dot")
        assert dot.startswith("digraph")
        svg = emit_diagram(scene, "svg")
        assert svg == emit_diagram(scene, "svg")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    with pytest.raises(ValueError):
        emit_diagram(born_scene(c, r1), "png")


def test_scene_check_rejects_a_wire_its_endpoints_do_not_expose():
    r = DiagramNode("r", "circle", "r[R1]", 0, (("k", 3),))
    dot = DiagramNode("d", "dot", "", 1, (("k", 3),))
    wide = DiagramNode("w", "dot", "", 1, (("k", 4),))
    assert DiagramScene((r, dot), (DiagramWire("r", "d", "k", 3),)).wires
    with pytest.raises(ValueError, match="node 'r' does not expose index j:3"):
        DiagramScene((r, dot), (DiagramWire("r", "d", "j", 3),))
    with pytest.raises(ValueError, match="node 'w' does not expose index k:3"):
        DiagramScene((r, wide), (DiagramWire("r", "w", "k", 3),))
    with pytest.raises(ValueError, match="wire endpoint 'x' is not a node"):
        DiagramScene((r, dot), (DiagramWire("r", "x", "k", 3),))


def test_scene_check_rejects_an_index_that_meets_no_wire():
    # a born scene whose p[R] circle exposes beta where the dot has alpha
    with pytest.raises(ValueError, match="index beta:2 of node 'n2' meets no wire"):
        _layered(
            [("circle", "r[R]", [("alpha", 2)])],
            [("dot", "", [("alpha", 2)])],
            [("circle", "p[R]", [("beta", 2)])],
        )
    r = DiagramNode("r", "circle", "r[R1]", 0, (("k", 3),))
    with pytest.raises(ValueError, match="index k:3 of node 'r' meets no wire"):
        DiagramScene((r,), ())


def test_layers_are_wired_on_shared_index_names():
    scene = _layered(
        [("circle", "a", [("i", 2)]), ("circle", "b", [("j", 3)])],
        [("hybrid", "", [("i", 2), ("j", 3), ("k", 6)])],
        [("dot", "", [("k", 6)]), ("dot", "", [("i", 2)])],
    )
    assert [(n.ident, n.layer) for n in scene.nodes] == [
        ("n0", 0), ("n1", 0), ("n2", 1), ("n3", 2), ("n4", 2)
    ]
    assert [(w.source, w.target, w.index_name, w.index_size) for w in scene.wires] == [
        ("n0", "n2", "i", 2), ("n1", "n2", "j", 3), ("n2", "n3", "k", 6), ("n2", "n4", "i", 2)
    ]
    # the wire takes the source's size, which the target must expose too
    with pytest.raises(ValueError, match="node 'n1' does not expose index k:6"):
        _layered([("circle", "a", [("k", 6)])], [("dot", "", [("k", 4)])])


def test_a_layer_keeps_its_listed_order_past_ten_nodes():
    # sorting by ident string would put n10 between n1 and n2
    scene = _layered(
        [("circle", f"r{i}", [("k", 2)]) for i in range(11)], [("dot", "", [("k", 2)])]
    )
    dot = emit_diagram(scene, "dot").splitlines()
    assert [line.split()[0] for line in dot[4:16]] == [f"n{i}" for i in range(12)]
    svg = emit_diagram(scene, "svg")
    drawn = re.findall(r'<text x="\d+" y="(\d+)" text-anchor="middle" font-size="11">(r\d+)<', svg)
    assert [label for _, label in drawn] == [f"r{i}" for i in range(11)]
    ys = [int(y) for y, _ in drawn]
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_product_scene_needs_an_entry(small_causaloid):
    s, _ = small_causaloid
    table = build_prob_table(s.spec, s.regions)
    bare = build_causaloid(table, [])
    with pytest.raises(UnknownEntry):
        product_scene(bare, s.regions[0], s.regions[1])
    c = build_causaloid(table, s.composites)
    with pytest.raises(UnknownEntry):
        born_scene(c, Region((9,)))


# -- the command line ------------------------------------------------------

def _scn(name):
    return str(scenario_path(name))


def test_cli_validate(capsys):
    assert main(["validate", "--scenario", _scn("classical_bit")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["span_validation"][0]["stable"] is True


def test_cli_compress_round_trip(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["compress", "--scenario", _scn("polariser_chain"), "--out", str(out1)]) == 0
    assert main(["compress", "--scenario", _scn("polariser_chain"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert [r["omega_size"] for r in payload["regions"]] == [5, 5, 5]


def test_cli_compress_require_herald():
    # the scenario carries one exterior-dependent herald: refuse to certify
    assert main(["compress", "--scenario", _scn("polariser_chain"),
                 "--require-herald"]) == 4
    assert main(["compress", "--scenario", _scn("classical_bit"),
                 "--require-herald"]) == 0


def test_cli_herald(capsys):
    code = main(["herald", "--scenario", _scn("polariser_chain"),
                 "--target", "R2:2", "--given", "R1:0,R3:4"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["well_defined"] is True
    assert payload["p"] == pytest.approx(0.9, abs=1e-9)
    code = main(["herald", "--scenario", _scn("polariser_chain"),
                 "--target", "R3:6", "--given", "R1:0", "--require-herald"])
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["well_defined"] is False


def test_cli_herald_bad_reference(capsys):
    code = main(["herald", "--scenario", _scn("polariser_chain"),
                 "--target", "R9:0"])
    assert code == 2
    code = main(["herald", "--scenario", _scn("polariser_chain"),
                 "--target", "R2:99"])
    assert code == 2
    code = main(["herald", "--scenario", _scn("polariser_chain"),
                 "--target", "R2-2"])
    assert code == 2
    capsys.readouterr()


def test_label_references_build_each_label_set_once(monkeypatch, capsys):
    built = []
    check = GammaSet.__post_init__

    def counted(gamma):
        built.append(str(gamma.region))
        check(gamma)

    monkeypatch.setattr(GammaSet, "__post_init__", counted)
    # the scenario's heralds name R2, R1, R3, R3 and R1: one set per region
    parse_scenario(_scn("polariser_chain"))
    assert built == ["{2}", "{1}", "{3}"]
    # the command's references resolve after the scenario's own, with a
    # fresh set per region; the query then fails on the repeated region
    built.clear()
    code = main(["herald", "--scenario", _scn("polariser_chain"),
                 "--target", "R2:2", "--given", "R1:0,R1:1"])
    assert code == 2
    assert "error: --given: " in capsys.readouterr().err
    assert built == ["{2}", "{1}", "{3}", "{2}", "{1}"]


def test_cli_missing_scenario(capsys):
    assert main(["compress", "--scenario", "/does/not/exist.json"]) == 2
    assert "error:" in capsys.readouterr().err


def _with_edit(tmp_path, name, edit) -> str:
    doc = _doc(name)
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return str(bad)


def _negative_chain(doc):
    doc["theory"]["chains"][0]["locations"] = [-1]
    doc["theory"]["instruments"][0]["location"] = -1
    doc["regions"]["R1"] = [-1]


def _reset_map(doc):
    doc["theory"]["instruments"][0] = {
        "location": 1, "family": "deterministic", "maps": ["identity", "reset:x"],
    }


def _family(value):
    return lambda d: d["theory"]["instruments"][0].update(family=value)


def _tolerance(key, value):
    return lambda d: d.setdefault("tolerances", {}).update({key: value})


# (scenario, document edit or None, command and flags, start of stderr): a
# malformed document or query names its JSON path or flag
MALFORMED = {
    "empty-region": ("spacelike_bits", lambda d: d["regions"].update(R2=[]),
                     ["compress"], "error: $.regions.R2: "),
    "negative-chain-location": ("classical_bit", _negative_chain, ["compress"],
                                "error: $.theory.chains[0].locations: "),
    "negative-region-location": ("classical_chain3",
                                 lambda d: d["regions"].update(R1=[-1]),
                                 ["compress"], "error: $.regions.R1: "),
    "list-instrument-location": ("classical_bit",
                                 lambda d: d["theory"]["instruments"][0].update(location=[1]),
                                 ["compress"], "error: $.theory.instruments[0].location: "),
    "repeated-composite-factor": ("spacelike_bits",
                                  lambda d: d.update(composites=[["R1", "R1"]]),
                                  ["compress"], "error: $.composites[0]: "),
    "non-integer-reset": ("classical_bit", _reset_map, ["compress"],
                          "error: $.theory.instruments[0]: "),
    "list-family": ("classical_bit", _family([]), ["compress"],
                    "error: $.theory.instruments[0].family: "),
    "object-family": ("classical_bit", _family({}), ["compress"],
                      "error: $.theory.instruments[0].family: "),
    "location-repeated-in-a-region": (
        "classical_chain3", lambda d: d["regions"].update(R1=[1, 1]), ["compress"],
        "error: $.regions.R1: location 1 is repeated in the region"),
    "location-repeated-in-a-chain": (
        "classical_chain3",
        lambda d: d["theory"]["chains"][0].update(locations=[1, 1, 2, 3]),
        ["compress"],
        "error: $.theory.chains[0].locations: location 1 is repeated in the chain"),
    "given-names-the-target-region": (
        "polariser_chain", None,
        ["herald", "--target", "R2:2", "--given", "R2:0"], "error: --given: "),
    "given-names-a-region-twice": (
        "polariser_chain", None,
        ["herald", "--target", "R2:2", "--given", "R1:0,R1:1"], "error: --given: "),
    "superscript-target-index": ("polariser_chain", None, ["herald", "--target", "R2:\u00b2"],
                                 "error: --target: "),
    "arabic-indic-given-index": (
        "polariser_chain", None,
        ["herald", "--target", "R2:2", "--given", "R1:\u0663"], "error: --given: "),
    "index-past-the-digit-limit": ("polariser_chain", None,
                                   ["herald", "--target", "R2:" + "1" * 5000],
                                   "error: --target: label index of 5000 characters"),
    "zero-rank-tolerance-flag": ("classical_bit", None, ["compress", "--tol-rank", "0"],
                                 "error: --tol-rank: "),
    "negative-herald-tolerance-flag": (
        "polariser_chain", None,
        ["herald", "--target", "R2:2", "--tol-herald=-1"], "error: --tol-herald: "),
    "nan-residual-tolerance": ("polariser_chain", _tolerance("residual", math.nan),
                               ["compress"], "error: $.tolerances.residual: "),
    "nan-rank-tolerance": ("classical_bit", _tolerance("rank", math.nan),
                           ["validate"], "error: $.tolerances.rank: "),
    "infinite-herald-tolerance": ("polariser_chain", _tolerance("herald", math.inf),
                                  ["compress"], "error: $.tolerances.herald: "),
    "huge-integer-rank-tolerance": ("classical_bit", _tolerance("rank", 10**400),
                                    ["compress"], "error: $.tolerances.rank: "),
    "infinite-herald-tolerance-flag": (
        "polariser_chain", None,
        ["herald", "--target", "R2:2", "--tol-herald", "inf"], "error: --tol-herald: "),
    "nan-rank-tolerance-flag": ("classical_bit", None, ["validate", "--tol-rank", "nan"],
                                "error: --tol-rank: "),
    "diagram-product-of-one-region": ("polariser_chain", None,
                                      ["diagram", "--expr", "product:R1"], "error: --expr: "),
    "diagram-product-of-a-region-with-itself": (
        "polariser_chain", None, ["diagram", "--expr", "product:R1,R1"],
        "error: --expr: product wants two different region names"),
    "diagram-undeclared-region": ("polariser_chain", None,
                                  ["diagram", "--expr", "born:R9"], "error: --expr: "),
    "diagram-expression-without-kind": ("polariser_chain", None,
                                        ["diagram", "--expr", "bogus"], "error: --expr: "),
    "diagram-unknown-kind": ("polariser_chain", None,
                             ["diagram", "--expr", "zzz:R1"], "error: --expr: "),
    "quantum-size-above-the-limit": (
        "qubit_channel", lambda d: d["theory"]["chains"][0].update(size=9), ["compress"],
        "error: $.theory.chains[0].size: a quantum chain size must be at most 8"),
    "classical-size-above-the-limit": (
        "classical_chain3", lambda d: d["theory"]["chains"][0].update(size=65), ["compress"],
        "error: $.theory.chains[0].size: a classical chain size must be at most 64"),
    "polariser-on-a-qutrit-chain": (
        "polariser_chain", lambda d: d["theory"]["chains"][0].update(size=3), ["compress"],
        "error: $.theory.instruments[0]: the polariser family needs a size-2 chain, not size 3"),
    "chain-without-locations": (
        "classical_chain3", lambda d: d["theory"]["chains"][0].update(locations=[]),
        ["compress"],
        "error: $.theory.chains[0].locations: a chain needs at least one location"),
    "inner-grouping-listed-after-its-outer": (
        "classical_chain3",
        lambda d: d.update(composites=[[["R1", "R2"], "R3"], ["R1", "R2"]]), ["compress"],
        "error: $.composites[0][0]: an inner grouping must be listed before the grouping"),
    "herald-grouping-not-listed": (
        "polariser_chain", lambda d: d.update(composites=[["R1", "R2"]]), ["compress"],
        "error: $.heralds[0]: the grouping ({1} x {2} x {3}) is not listed in composites"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_rejects_malformed_scenarios(tmp_path, capsys, case):
    name, edit, argv, err = MALFORMED[case]
    path = _scn(name) if edit is None else _with_edit(tmp_path, name, edit)
    assert main([argv[0], "--scenario", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(err)
    assert captured.out == ""


def _nest_r1_r2(doc):
    # every herald needs a flat grouping; ((R1 x R2) x R3) is not one
    doc["composites"] = [["R1", "R2"], [["R1", "R2"], "R3"], ["R2", "R3"]]


@pytest.mark.parametrize(
    "edit, argv, err",
    [
        (_nest_r1_r2, ["compress"],
         "error: $.heralds[0]: the grouping ({1} x {2} x {3}) is not listed in composites"),
        (lambda d: d.update(heralds=[], composites=[["R1", "R2"], ["R1", "R2", "R3"]]),
         ["herald", "--target", "R3:6", "--given", "R1:0"],
         "error: --given: the grouping ({1} x {3}) is not listed in composites"),
    ],
)
def test_a_herald_needs_its_grouping_before_any_table(
    tmp_path, capsys, monkeypatch, edit, argv, err
):
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr("causaloid.report.build_prob_table", refuse)
    path = _with_edit(tmp_path, "polariser_chain", edit)
    assert main([argv[0], "--scenario", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == err + "\n"
    assert captured.out == ""


def _wide_region(doc, heralds):
    # 256 labels per size-16 probe_reset location: 16,777,216 in one region
    doc["theory"]["chains"][0]["size"] = 16
    doc.update(regions={"R": [1, 2, 3]}, composites=[], heralds=heralds)


@pytest.mark.parametrize(
    "heralds, err",
    [
        ([], "error: table would hold "),
        ([{"name": "h", "target": ["R", 0]}], "error: region {1,2,3} would have 16777216 labels"),
    ],
)
def test_cli_refuses_an_oversized_region_at_once(tmp_path, capsys, heralds, err):
    path = _with_edit(tmp_path, "classical_chain3", lambda d: _wide_region(d, heralds))
    started = time.perf_counter()
    assert main(["compress", "--scenario", path]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith(err)


def test_cli_numerical_failures(capsys):
    code = main(["compress", "--scenario", _scn("classical_trit"),
                 "--tol-rank", "2.0", "--out", "/dev/null"])
    assert code == 3
    code = main(["compress", "--scenario", _scn("qubit_channel"),
                 "--tol-rank", "0.5", "--out", "/dev/null"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error:" in err


def test_every_error_class_exits_with_the_code_its_type_decides(monkeypatch, capsys):
    # a command raising a package error exits 3 exactly when the error is a
    # NumericalError, and 2 otherwise, with the message on standard error
    classes = [getattr(errors, name) for name in errors.__all__]
    assert len(classes) == 23 and all(issubclass(c, CausaloidError) for c in classes)
    numerical = {c for c in classes if issubclass(c, NumericalError)} - {NumericalError}
    assert numerical == set(NumericalError.__subclasses__()) == {
        ResidualTooLarge, SingularTransform, SpanDeficient, DegenerateExterior,
        ZeroDenominator, ZeroDenominatorVector,
    }
    for cls in classes:
        def command(args, cls=cls):
            raise cls("no answer")

        monkeypatch.setitem(cli._COMMANDS, "validate", command)
        code = main(["validate", "--scenario", _scn("classical_bit")])
        assert code == (3 if issubclass(cls, NumericalError) else 2), cls
        assert capsys.readouterr().err == f"error: {cls('no answer')}\n"


def test_cli_diagram(tmp_path, capsys):
    code = main(["diagram", "--scenario", _scn("polariser_chain"),
                 "--expr", "product:R1,R2", "--format", "dot"])
    assert code == 0
    first = capsys.readouterr().out
    assert "digraph" in first
    main(["diagram", "--scenario", _scn("polariser_chain"),
          "--expr", "product:R1,R2", "--format", "dot"])
    assert capsys.readouterr().out == first
    out = tmp_path / "scene.svg"
    code = main(["diagram", "--scenario", _scn("classical_bit"),
                 "--expr", "born:R1", "--format", "svg", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("<svg")
    assert main(["diagram", "--scenario", _scn("classical_bit"),
                 "--expr", "expand:R9"]) == 2
    capsys.readouterr()


def test_cli_subcommands_take_only_the_flags_they_read(capsys):
    # validate and diagram run no herald and print no seed; herald prints no seed
    path = _scn("polariser_chain")
    for argv in (
        ["validate", "--tol-herald", "1e-6"],
        ["validate", "--seed", "1"],
        ["diagram", "--expr", "born:R1", "--tol-herald", "1e-6"],
        ["diagram", "--expr", "born:R1", "--seed", "1"],
        ["herald", "--target", "R2:2", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--scenario", path, *argv[1:]])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_cli_seed_lands_in_report(tmp_path):
    out = tmp_path / "r.json"
    main(["compress", "--scenario", _scn("classical_bit"),
          "--seed", "424242", "--out", str(out)])
    assert json.loads(out.read_text())["seed"] == 424242


def _polariser_chain(n, neighbours=False):
    """An n-location polariser chain with every region pair declared, or
    only neighbouring pairs (the benchmark's scaling ladder)."""
    names = [f"R{x}" for x in range(1, n + 1)]
    return parse_scenario_dict({
        "format_version": 1,
        "name": f"polariser-{n}",
        "theory": {
            "kind": "quantum",
            "chains": [{"name": "photon", "size": 2,
                        "locations": list(range(1, n + 1))}],
            "instruments": [
                {"location": x, "family": "polariser",
                 "angles_deg": [0, 30, 60, 90]}
                for x in range(1, n + 1)
            ],
        },
        "regions": {name: [x] for x, name in enumerate(names, 1)},
        "composites": [
            list(pair)
            for pair in (zip(names, names[1:]) if neighbours
                         else itertools.combinations(names, 2))
        ],
    })


@pytest.mark.parametrize("make", [
    pytest.param(lambda scenarios: scenarios("polariser_chain"), id="polariser_chain"),
    pytest.param(lambda scenarios: _polariser_chain(4, neighbours=True), id="ladder4"),
    pytest.param(lambda scenarios: _polariser_chain(5, neighbours=True), id="ladder5"),
])
def test_pipeline_builds_one_table(scenarios, monkeypatch, make):
    # the span checks read their extended ranks at the regions' cuts
    import sys

    import causaloid.backends as backends

    original = backends.build_prob_table
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "causaloid" or name.startswith("causaloid."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    s = make(scenarios)
    run_pipeline(s)
    assert calls == [s.regions]


@pytest.mark.parametrize("make", [
    pytest.param(lambda scenarios: scenarios("polariser_chain"), id="polariser_chain"),
    pytest.param(lambda scenarios: _polariser_chain(4), id="chain4"),
])
def test_pipeline_scans_each_rank_once(scenarios, monkeypatch, make):
    # one fiducial scan per region and composite, one extended-rank scan
    # of the cut rows per region, one conditioning span per mediating
    # location; the declared-exterior ranks are read from the registry
    import sys

    from causaloid.tables import greedy_independent_rows

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return greedy_independent_rows(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "causaloid" or name.startswith("causaloid."):
            for attr, value in list(vars(module).items()):
                if value is greedy_independent_rows:
                    monkeypatch.setattr(module, attr, counted)
    s = make(scenarios)
    pairs = list(itertools.combinations(s.regions, 2))
    # every pair is declared, so adjacency compresses nothing itself
    assert set(pairs) <= set(s.composites)
    mediators = {
        x for a, b in pairs for x in s.spec.locations()
        if x not in a.locations + b.locations
    }
    run_pipeline(s)
    assert len(calls) == 2 * len(s.regions) + len(s.composites) + len(mediators)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_validate_exits_as_compress_does(capsys, name):
    for tol in ("1e-7", "1e-3", "0.5", "2.0", "1e308"):
        validate, compress = (
            main([command, "--scenario", _scn(name), "--tol-rank", tol])
            for command in ("validate", "compress")
        )
        assert validate == compress, f"--tol-rank {tol}"
    capsys.readouterr()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_tiny_rank_tolerance_keeps_fiducial_sets_independent(capsys, name):
    # below rounding level every residual passes the rank test; a fiducial
    # set still never outgrows its exterior columns, so the run either
    # fails its reconstruction check or reports sets that fit
    code = main(["compress", "--scenario", _scn(name), "--tol-rank", "1e-17"])
    out = capsys.readouterr().out
    if code == 3:
        assert out == ""
        return
    assert code == 0
    payload = json.loads(out)
    exteriors = {row["region"]: row["exteriors"] for row in payload["span_validation"]}
    for item in payload["regions"]:
        assert item["omega_size"] <= exteriors[item["region"]]


@pytest.mark.parametrize("command", ["compress", "validate"])
def test_noise_rows_in_a_fiducial_set_fail_the_span_check(capsys, command):
    # at 1e-16 the greedy scan keeps 8 rows of polariser_chain's R1, whose
    # extended exterior set has rank 5: more columns cannot lower a rank,
    # so the extra rows are rounding noise and the run must not pass. The
    # extended rank is itself read below rounding noise, so it depends on
    # the BLAS kernel (5 on one, 6 on another); only its bound is checked
    argv = [command, "--scenario", _scn("polariser_chain"), "--tol-rank", "1e-16"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    found = re.search(r"fiducial rank 8 exceeds the extended rank (\d+);", captured.err)
    assert found, captured.err
    assert int(found.group(1)) < 8


def test_pipeline_decodes_only_witness_exteriors(scenarios, monkeypatch):
    # exterior columns are index arithmetic; a configuration object is
    # decoded only for the two witnesses of an ill-defined herald
    from causaloid.tables import ExteriorConfiguration

    built = []
    check = ExteriorConfiguration.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ExteriorConfiguration, "__post_init__", counted)
    report = run_pipeline(scenarios("polariser_chain"))
    ill = [r for _, r in report.heralds if not r.well_defined]
    assert ill
    assert len(built) <= 2 * len(ill)
