"""The one JSON writer and the causaloid document it writes.

``json_text`` must return exactly ``json.dumps(value, indent=2,
sort_keys=True) + "\\n"``; ``json.dumps`` stays the oracle here. The
registry pins are sha256 sums of ``save_causaloid`` bytes for every bundled
scenario's registry, as built and after ``meta_compress``, recorded with
the ``json.dumps`` writer; a change that keeps the document format must
keep them. Loading must give back every Λ entry bit for bit, and every
malformed ``matrix_hex`` must end in a ``SchemaError``.
"""
from __future__ import annotations

import enum
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from causaloid.causaloid import (
    causaloid_from_dict,
    causaloid_to_dict,
    json_text,
    load_causaloid,
    matrix_hex,
    meta_compress,
    save_causaloid,
)
from causaloid.errors import CausaloidError, SchemaError
from causaloid.report import checked_causaloid

from conftest import SCENARIO_NAMES

REGISTRY_DIGESTS = {
    "adjacent_gates": {
        "built": "f0005e61b96e002067d240ffbb5572f0d2e28c862db001d9d2296cf4b973e183",
        "meta": "420f9a76b3083cb1b6474c5557850b8c567814ae1483eb600f28b59ccd77129f",
    },
    "classical_bit": {
        "built": "fa74ef15eb161c1670798bfb1efa2d6008cede19c96dff9abd5176855e4a3242",
        "meta": "4df893788af430802ad665d6b6a335a47106686002a88682013d2e7f79513b95",
    },
    "classical_chain3": {
        "built": "c64a42fe3525072ecb4ef011fed9211694cc51f1011a5d3644a2250cd01369f8",
        "meta": "201ce18aec9858a33076f888ffcfb76afe5753a086d1fa22242bf36fdf480910",
    },
    "classical_trit": {
        "built": "2ee6ad1f9eadfaf5690addd7151040bd385d5dfd114324855a43c41a389176fb",
        "meta": "0c4f102278121934330a0a27d3e0b1ea10478b3da908450557a4ea67ba9578cd",
    },
    "polariser_chain": {
        "built": "851bb934d910b0938a8baeadb55c2e3feee4d1bb83b68df04c7cc16441eb4646",
        "meta": "49ca4d2adc6af51f303ee283bcf7f0b5d445b5390321eb5e16583db8ea05e045",
    },
    "qubit_channel": {
        "built": "94dd730eb1727439f73a7b2db48a0bede3f500ae4bc4a3428ee38406bed98ef1",
        "meta": "1637e792893803a31f6f0e978cde81a91d7201660c509839c832232be2180e4e",
    },
    "qutrit_channel": {
        "built": "56de39c32d589e552b50047418898ecfda3c829d53dfc681e720ca7d582f2e79",
        "meta": "5d682bd80c0f39ce2b86d7fe9836f8901dee867a7c329ee4e59fef0d1866f636",
    },
    "spacelike_bits": {
        "built": "f1d775fdaf15f938e4f2fff43b93b2cd9c6b25e5cfd0497cd04888313081dbf2",
        "meta": "6577ac0c24d359e73f666db9d908fa1394d1b3d60c764a165640122dab9191c9",
    },
}


def _registry(scenarios, name: str, kind: str):
    _, _, c = checked_causaloid(scenarios(name))
    return c if kind == "built" else meta_compress(c, ["tensor-factorization"])


def test_every_bundled_registry_is_pinned():
    assert sorted(REGISTRY_DIGESTS) == sorted(SCENARIO_NAMES)


@pytest.mark.parametrize("kind", ["built", "meta"])
@pytest.mark.parametrize("name", sorted(REGISTRY_DIGESTS))
def test_registry_bytes_are_pinned(tmp_path, scenarios, name, kind):
    c = _registry(scenarios, name, kind)
    path = tmp_path / "registry.json"
    save_causaloid(c, path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == REGISTRY_DIGESTS[name][kind]
    # the file is the json.dumps text of causaloid_to_dict, plus a newline
    text = json.dumps(causaloid_to_dict(c), indent=2, sort_keys=True) + "\n"
    assert data == text.encode("utf-8")


# -- the writer against json.dumps ------------------------------------------

def _oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _outcome(write, value):
    try:
        return write(value)
    except TypeError:
        return TypeError


class _Colour(enum.IntEnum):
    RED = 3


_AWKWARD_TEXT = st.sampled_from([
    "", '"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "\U0001f600",
    "\ud800", "\udfff", "a\ud83dz", "0x1.8p+0", "nan", "-inf",
])
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | _AWKWARD_TEXT
_FLOATS = (
    st.floats()
    | st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
        math.inf, -math.inf, math.nan, 1.7976931348623157e308, 0.1,
    ])
    | st.floats().map(np.float64)
)
_INTS = st.integers() | st.integers(min_value=-(2**80), max_value=2**80) | st.just(_Colour.RED)
_SCALARS = _TEXT | _INTS | _FLOATS | st.booleans() | st.none()
# one key type per dict, as a sortable document has; mixed keys below
_KEYS = (
    st.lists(_TEXT, max_size=5)
    | st.lists(_INTS | st.booleans(), max_size=4)
    | st.lists(st.floats(), max_size=3)
    | st.lists(st.none(), max_size=1)
)


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(_TEXT, max_size=6)
        | st.lists(_TEXT | _SCALARS, max_size=6)
        | st.tuples(_KEYS, st.lists(children, min_size=5, max_size=5)).map(
            lambda kv: dict(zip(kv[0], kv[1]))
        )
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_json_text_is_json_dumps(value):
    assert _outcome(json_text, value) == _outcome(_oracle, value)


@pytest.mark.parametrize(
    "value",
    [
        np.int64(1), np.bool_(True), {1, 2}, b"bytes", 1j, object(),
        [["0x1.0p+0", "0x0.0p+0"], [np.float32(1.0)]],
        {"a": [1, 2, np.int64(3)]},
        {(1, 2): "tuple key"},
        {"mixed": 1, 2: "keys"},
    ],
    ids=lambda v: type(v).__name__,
)
def test_json_text_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        json_text(value)


# -- registry round trip over arbitrary float bit patterns ------------------

_BITS = st.integers(min_value=0, max_value=2**64 - 1) | st.sampled_from([
    0x8000000000000000,  # -0.0
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
    0x7FF0000000000000,  # inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # nan
    0xFFF0000000000001,  # nan with a payload and the sign bit
])


@pytest.fixture(scope="module")
def polariser_doc(scenarios):
    _, _, c = checked_causaloid(scenarios("polariser_chain"))
    return causaloid_to_dict(c)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_registry_round_trip_keeps_every_bit(tmp_path_factory, polariser_doc, data):
    # the expansion rows outside the fiducial set are free; fill them with
    # arbitrary bit patterns and send the registry through a file
    doc = json.loads(json.dumps(polariser_doc))
    written = []
    for item in doc["elementary"] + doc["composites"]:
        rows = np.array([[float.fromhex(x) for x in row] for row in item["matrix_hex"]])
        free = [i for i in range(rows.shape[0]) if i not in item["omega"]["indices"]]
        bits = data.draw(hnp.arrays(np.uint64, (len(free), rows.shape[1]), elements=_BITS))
        rows[free] = bits.view(np.float64)
        item["matrix_hex"] = matrix_hex(rows)
        written.append(rows)
    path = tmp_path_factory.mktemp("registry") / "registry.json"
    save_causaloid(causaloid_from_dict(doc), path)
    back = load_causaloid(path)
    got = [e.matrix for e in back.elementary] + [e.matrix for _, e in back.composites]
    assert len(got) == len(written)
    for want, matrix in zip(written, got):
        assert matrix.shape == want.shape
        nan = np.isnan(want)
        # float.hex writes every NaN as "nan": a NaN comes back as NaN
        assert np.array_equal(np.isnan(matrix), nan)
        assert np.array_equal(matrix[~nan].view(np.uint64), want[~nan].view(np.uint64))
    assert path.read_text(encoding="utf-8") == json_text(causaloid_to_dict(back))


# -- malformed matrix_hex ----------------------------------------------------

def _bad_matrices(m: list[list[str]]) -> dict:
    n = len(m[0])
    return {
        "ragged": [m[0], m[1][:-1]] + m[2:],
        "row not a list": [m[0], "0x1.0p+0"] + m[2:],
        "row a string of row length": [m[0], "1" * n] + m[2:],
        "row an object": [m[0], dict.fromkeys(m[1])] + m[2:],
        "non-string entry": [[1.0] + m[0][1:]] + m[1:],
        "null entry": [[None] + m[0][1:]] + m[1:],
        "unparsable string": [["0xzz"] + m[0][1:]] + m[1:],
        "empty matrix": [],
        "empty rows": [[] for _ in m],
        "not a list": "0x1.0p+0",
        "an object": {"rows": m},
    }


@pytest.fixture(scope="module")
def chain3_doc(scenarios):
    _, _, c = checked_causaloid(scenarios("classical_chain3"))
    doc = causaloid_to_dict(c)
    assert doc["elementary"] and doc["composites"]
    return doc


@pytest.mark.parametrize("section", ["elementary", "composites"])
@pytest.mark.parametrize("case", list(_bad_matrices([["0x0p+0"] * 2] * 2)))
def test_malformed_matrix_hex_is_a_schema_error(tmp_path, chain3_doc, section, case):
    doc = json.loads(json.dumps(chain3_doc))
    item = doc[section][0]
    item["matrix_hex"] = _bad_matrices(item["matrix_hex"])[case]
    with pytest.raises(SchemaError, match="malformed causaloid document"):
        causaloid_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match="malformed causaloid document"):
        load_causaloid(path)


# -- edits that the loader must refuse -----------------------------------------

def _label(part, value):
    # the last label of the first region, [[3], [1]] in polariser_chain
    return lambda d: d["elementary"][0]["labels"][-1][part].__setitem__(0, value)


# each edit would load and then be saved as other bytes, or load a float
# where the registry holds an integer
REGISTRY_EDITS = {
    "extra top-level key": lambda d: d.update(extra=1),
    "extra key in an omega": lambda d: d["elementary"][0]["omega"].update(extra=1),
    "extra key in an elementary entry": lambda d: d["elementary"][0].update(extra=1),
    "extra key in a composite entry": lambda d: d["composites"][0].update(extra=1),
    "extra key in a stub": lambda d: d["deduced"][0].update(extra=1),
    "factors on a gamma omega": lambda d: d["elementary"][0]["omega"].update(factors=[[1]]),
    "deduced removed": lambda d: d.pop("deduced"),
    "rules removed": lambda d: d.pop("rules"),
    "float parent_size": lambda d: d["elementary"][0]["omega"].update(parent_size=8.0),
    "string parent_size": lambda d: d["elementary"][0]["omega"].update(parent_size="8"),
    "float format_version": lambda d: d.update(format_version=1.0),
    "boolean format_version": lambda d: d.update(format_version=True),
    "float label action": _label(0, 3.0),
    "float label outcome": _label(1, 1.0),
    "float dims": lambda d: d["composites"][0]["omega"].update(dims=[5.0, 5.0]),
    "rules a string": lambda d: d.update(rules="tensor-factorization"),
}


@pytest.fixture(scope="module")
def polariser_meta_doc(scenarios):
    _, _, c = checked_causaloid(scenarios("polariser_chain"))
    doc = causaloid_to_dict(meta_compress(c, ["tensor-factorization"]))
    assert doc["elementary"][0]["labels"][-1] == [[3], [1]]
    assert doc["composites"][0]["omega"]["dims"] == [5, 5]
    return doc


@pytest.mark.parametrize("case", sorted(REGISTRY_EDITS))
def test_registry_loads_only_what_save_writes(polariser_meta_doc, case):
    doc = json.loads(json.dumps(polariser_meta_doc))
    causaloid_from_dict(doc)
    REGISTRY_EDITS[case](doc)
    with pytest.raises(SchemaError, match="causaloid document|format_version"):
        causaloid_from_dict(doc)


# -- single-field edits of a registry document --------------------------------

ODD_VALUES = ("x", 1.5, True, [], [[1]])


def _fields(node, path=()):
    """The path of every field, with each matrix cut to its first entry
    (the rest of every matrix is covered by the malformed matrix_hex cases)."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node[:1] if "matrix_hex" in path else node)
        if isinstance(node, list) else ()
    )
    for key, child in children:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def test_edited_registry_fields_fail_only_with_causaloid_errors(scenarios):
    _, _, c = checked_causaloid(scenarios("polariser_chain"))
    doc = causaloid_to_dict(meta_compress(c, ["tensor-factorization"]))
    assert doc["composites"] and doc["deduced"]
    for path in list(_fields(doc)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kept = parent[path[-1]]
        for value in ODD_VALUES:
            parent[path[-1]] = value
            try:
                causaloid_from_dict(doc)
            except CausaloidError as exc:
                # a key or a fiducial index of the wrong type is a schema fault
                if "key" in path or ("indices" in path and path[-1] != "indices"):
                    assert isinstance(exc, SchemaError), (path, value, exc)
            else:
                assert "key" not in path, (path, value)
        parent[path[-1]] = kept
    causaloid_from_dict(doc)
    # a well-formed key nested past the interpreter's stack
    key = [1]
    for location in range(2, 3000):
        key = [key, [location]]
    doc["composites"][0]["key"] = key
    with pytest.raises(SchemaError, match="malformed causaloid document"):
        causaloid_from_dict(doc)


def _region_fields(node, path=()):
    """The path of every region-valued field: the regions, each entry's and
    fiducial set's region, a product set's factors and every key leaf."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _region_fields(child, path + (key,))
    elif isinstance(node, list) and node and all(type(x) is int for x in node):
        if path[-1] == "region" or path[-2] in ("regions", "factors") or "key" in path:
            yield path
    elif isinstance(node, list) and "matrix_hex" not in path:
        for i, child in enumerate(node):
            yield from _region_fields(child, path + (i,))


def test_registry_regions_load_only_in_canonical_form(scenarios):
    # a region written with a repeated location or out of order would load
    # and then be saved as other bytes
    _, _, c = checked_causaloid(scenarios("polariser_chain"))
    doc = causaloid_to_dict(meta_compress(c, ["tensor-factorization"]))
    paths = list(_region_fields(doc))
    kinds = {"key" if "key" in p else [k for k in p if isinstance(k, str)][-1] for p in paths}
    assert kinds == {"regions", "region", "factors", "key"}
    assert ("elementary", 0, "region") in paths and ("deduced", 0, "key", 0) in paths
    reversed_ones = 0
    for path in paths:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kept = parent[path[-1]]
        edits = [[kept[0]] + kept] + ([kept[::-1]] if len(kept) > 1 else [])
        reversed_ones += len(edits) - 1
        for value in edits:
            parent[path[-1]] = value
            with pytest.raises(SchemaError, match="malformed causaloid document"):
                causaloid_from_dict(doc)
        parent[path[-1]] = kept
    assert reversed_ones
    causaloid_from_dict(doc)
