"""The causaloid document the registry writes: format 2.

Each Λ is one string, the canonical base64 of its row-major little-endian
float64 bytes; its shape is the entry's fiducial set's. The registry pins
are sha256 sums of ``save_causaloid`` bytes for every bundled scenario's
registry, as built and after ``meta_compress``. The format-1 pins, recorded
when each Λ was a list of ``float.hex`` rows, are checked against a format-1
rendering of the same registry, so every Λ bit is the one format 1 held.
Loading must give back every Λ bit, NaN payloads included, a re-save must
write the same bytes, and every malformed packed string must end in a
``SchemaError``.
"""
from __future__ import annotations

import base64
import hashlib
import json

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

# sha256 of the format-1 rendering (_format_1) of each registry
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


# sha256 of the save_causaloid bytes of each registry
REGISTRY_V2_DIGESTS = {
    "adjacent_gates": {
        "built": "24822d46f5ed0bfb370c88bb26bf2b94ba0de934b7c7fb46224e47529763f020",
        "meta": "70c88f72cb5d11f4d22814a8382b1ae89ba08925f74ed21d899516b90df6f9bc",
    },
    "classical_bit": {
        "built": "cb6500c5521929888505e16b6b6c65e1496386799a830d010847cd67ca6acf99",
        "meta": "26848ad429f5557309ef15ffe816e98050e117923aa26285720fe9ad808a16c3",
    },
    "classical_chain3": {
        "built": "d27bacfc31c7e599d6ef0e3ec92bfb0323cc1627267c31881363f599c7af4df8",
        "meta": "f3ebc68b0a8da09f0659ef255af93e423ab672e2a3410a4ea02be548e5d44f1a",
    },
    "classical_trit": {
        "built": "1b7cd5ce840e6cdabcd75ddd18a2d05d438e361101019b334ac647d0a902ebe2",
        "meta": "ea70b3d895ed8d7245aa788a520d69d3ff0237ea05a4c27709104ddaf4f1d4d2",
    },
    "polariser_chain": {
        "built": "109bcfc4ba33d980d67c6884a74bb53ac8b4d87ea7b9d4d9738e0a82faac1311",
        "meta": "5ab532e3b53d0fa0e3834b8cada965f973b2589d1f8dae72dd2322b1066b798b",
    },
    "qubit_channel": {
        "built": "a1d431b2a31d5c6e006bac70d6b2f8a9eda2030a67c28e022e4e9d8e97c8b3b1",
        "meta": "74abc23ec918f29ad7ae149ecbc2536e78daee34dd1b345f91e4ea0bd8ef3838",
    },
    "qutrit_channel": {
        "built": "7f41e482b0bb9ad413937933784987be74a19de0a0731c4d1c905161bbcfc55a",
        "meta": "eed68df37f991f3f574e54fb9db8d915cc2acbd88219146db843551638e2558d",
    },
    "spacelike_bits": {
        "built": "310f26cc326fe964c6e942fcea3ce101ce237c558bb7c5ffec0dae26ad5c3181",
        "meta": "ecd3a0fca30cf543d21b5201c4868254fc41724dea25f3eb5901b0bcb337e2fd",
    },
}


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _pack(matrix) -> str:
    return _b64(np.asarray(matrix, dtype="<f8").tobytes())


def _unpack(item: dict) -> np.ndarray:
    omega = item["omega"]
    data = base64.b64decode(item["matrix_f64le_b64"], validate=True)
    shape = (omega["parent_size"], len(omega["indices"]))
    return np.frombuffer(data, dtype="<f8").reshape(shape).copy()


def _format_1(doc: dict) -> dict:
    """The document as format 1 wrote it: each Λ as ``matrix_hex`` rows."""
    doc = json.loads(json.dumps(doc))
    for item in doc["elementary"] + doc["composites"]:
        item["matrix_hex"] = matrix_hex(_unpack(item))
        del item["matrix_f64le_b64"]
    doc["format_version"] = 1
    return doc


def _registry(scenarios, name: str, kind: str):
    _, _, c = checked_causaloid(scenarios(name))
    return c if kind == "built" else meta_compress(c, ["tensor-factorization"])


def test_every_bundled_registry_is_pinned():
    assert sorted(REGISTRY_DIGESTS) == sorted(REGISTRY_V2_DIGESTS) == sorted(SCENARIO_NAMES)


@pytest.mark.parametrize("kind", ["built", "meta"])
@pytest.mark.parametrize("name", sorted(REGISTRY_DIGESTS))
def test_registry_bytes_are_pinned(tmp_path, scenarios, name, kind):
    c = _registry(scenarios, name, kind)
    path = tmp_path / "registry.json"
    save_causaloid(c, path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == REGISTRY_V2_DIGESTS[name][kind]
    save_causaloid(load_causaloid(path), path)
    assert path.read_bytes() == data
    # every Λ bit is the one the format-1 pins hold
    text = json.dumps(_format_1(causaloid_to_dict(c)), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REGISTRY_DIGESTS[name][kind]


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
        rows = _unpack(item)
        free = [i for i in range(rows.shape[0]) if i not in item["omega"]["indices"]]
        bits = data.draw(hnp.arrays(np.uint64, (len(free), rows.shape[1]), elements=_BITS))
        rows[free] = bits.view(np.float64)
        item["matrix_f64le_b64"] = _pack(rows)
        written.append(rows)
    path = tmp_path_factory.mktemp("registry") / "registry.json"
    save_causaloid(causaloid_from_dict(doc), path)
    back = load_causaloid(path)
    got = [e.matrix for e in back.elementary] + [e.matrix for _, e in back.composites]
    assert len(got) == len(written)
    for want, matrix in zip(written, got):
        assert matrix.shape == want.shape
        # all 64 bits of every value, NaN payloads and signs included
        assert np.array_equal(matrix.view(np.uint64), want.view(np.uint64))
    assert path.read_text(encoding="utf-8") == json_text(causaloid_to_dict(back))


# -- malformed packed matrices ----------------------------------------------

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _bad_packed(text: str) -> dict:
    """Every kind of malformed packed Λ, made from a canonical ``text`` that
    ends in one "=" pad (so its last symbol carries two zero pad bits)."""
    data = base64.b64decode(text)
    last = _ALPHABET.index(text[-2])
    return {
        "a number": 1.0,
        "a list": [text],
        "null": None,
        "an object": {"matrix_f64le_b64": text},
        "empty string": "",
        "one byte short": _b64(data[:-1]),
        "one value too many": _b64(data + bytes(8)),
        "outside the alphabet": "*" + text[1:],
        "embedded newline": text[:4] + "\n" + text[4:],
        "missing padding": text[:-1],
        "non-zero pad bits": text[:-2] + _ALPHABET[last + 1] + "=",
    }


@pytest.fixture(scope="module")
def chain3_doc(scenarios):
    _, _, c = checked_causaloid(scenarios("classical_chain3"))
    doc = causaloid_to_dict(c)
    for section in ("elementary", "composites"):
        text = doc[section][0]["matrix_f64le_b64"]
        assert text.endswith("=") and not text.endswith("==")
    return doc


@pytest.mark.parametrize("section", ["elementary", "composites"])
@pytest.mark.parametrize("case", list(_bad_packed(_pack([1.0]))))
def test_malformed_packed_matrix_is_a_schema_error(tmp_path, chain3_doc, section, case):
    doc = json.loads(json.dumps(chain3_doc))
    item = doc[section][0]
    item["matrix_f64le_b64"] = _bad_packed(item["matrix_f64le_b64"])[case]
    with pytest.raises(SchemaError, match="malformed causaloid document"):
        causaloid_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match="malformed causaloid document"):
        load_causaloid(path)


def test_a_format_1_registry_is_refused(tmp_path, chain3_doc):
    doc = _format_1(chain3_doc)
    with pytest.raises(SchemaError, match="unsupported format_version 1"):
        causaloid_from_dict(doc)
    path = tmp_path / "format1.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match="unsupported format_version 1"):
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
    "rule a number": lambda d: d["deduced"][0].update(rule=1),
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
    """The path of every field."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
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
    elif isinstance(node, list):
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
