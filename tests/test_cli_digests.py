"""Byte-level pins of the ``compress``, ``validate`` and ``herald`` outputs.

The digests are sha256 sums of the stdout bytes of ``causaloid compress``
and ``causaloid validate`` on each bundled scenario, and of two
``causaloid herald`` queries. They pin the report format, every span rank
and exterior count, every fiducial choice, every ``lambda_sha256`` and the
witness exteriors of an ill-defined herald; a change that is meant to
keep behaviour must keep them.
"""
from __future__ import annotations

import hashlib

import pytest

from causaloid.cli import main

from conftest import SCENARIO_NAMES, scenario_path

DIGESTS = {
    "adjacent_gates": {
        "compress": "fad75ea74e10b4291a7e5e3a6e553bfc28d054be9b1044d25f151c32ad3d147c",
        "validate": "26b12ce4aa25067509f20a4b768dbe64a98e1d95b515cc14eaec9358cc2f970b",
    },
    "classical_bit": {
        "compress": "98c95a61c0977584e3a723c3e96eb41a9a82b229e1c8ca5ca9adb39d59cf3934",
        "validate": "4ca33387f95799e4360c8fe7cb6de9a757c5423d8bab777588d7802eb74203da",
    },
    "classical_chain3": {
        "compress": "83c14fa965462941cabdbf5a4874f86f115c53ac44abfa54531780f3627eb3aa",
        "validate": "eee2b3c84c86a26cc50e9c55af605666f8192ab297ed3d7b9470fcc6d28d7930",
    },
    "classical_trit": {
        "compress": "55987fde6bc3f7db239c6200599746ba515893cfc41848639be4b1c0fc71866a",
        "validate": "4846e6334dbb0b1ea31e29b61293449f6984922e9c33916865dd66a1d8ae0462",
    },
    "polariser_chain": {
        "compress": "1646e48c93db2b1691dda50c394d8fe0d196967ed18a5f38d260c25421609d72",
        "validate": "6a413eed620830451b484b17d4a42f1197f5cba6823030dc3860c3acde4ceb72",
    },
    "qubit_channel": {
        "compress": "b2a9591c96aad005da00390ee73605720a89b5b227258d43f8457b75e86f6573",
        "validate": "3af3ee4d87efad106d85e299a76a32946b130bf663e7b5dd8870eae6a724a39e",
    },
    "qutrit_channel": {
        "compress": "1ff6e4fc9a6a84c37515c8b3aba2b7bdff5c5930a417b87e3eec662bec45b412",
        "validate": "c1c542c3833d455aa73b4bb5a3bf65a6022709b7a05e1977d4ed462fc1c3a742",
    },
    "spacelike_bits": {
        "compress": "8f22bb85cc692e2e3f20c5e68d5752dff00fb083ff788b27c6134842a6fd1592",
        "validate": "370e248d3ab757122e1f27417a66809f3c1680d3ee376565c09878e9e782d426",
    },
}


def test_every_bundled_scenario_is_pinned():
    assert sorted(DIGESTS) == sorted(SCENARIO_NAMES)


@pytest.mark.parametrize("command", ["compress", "validate"])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_are_pinned(capsys, name, command):
    assert main([command, "--scenario", scenario_path(name)]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DIGESTS[name][command]


# (--target, --given) on polariser_chain: the README example (well defined)
# and criterion 7's pass-at-last given pass-at-first (witness exteriors)
HERALD_DIGESTS = {
    ("R2:2", "R1:0,R3:4"): "be171ba16051af0b7a059a982c2dbf2e96c7beb0cc6943894f9a826245a48e54",
    ("R3:6", "R1:0"): "f31b5d7990011067b5d325de840a6e47b266e6b6d23d6d619df9997a624be040",
}


@pytest.mark.parametrize("target,given", sorted(HERALD_DIGESTS))
def test_herald_output_bytes_are_pinned(capsys, target, given):
    argv = ["herald", "--scenario", scenario_path("polariser_chain"),
            "--target", target, "--given", given]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == HERALD_DIGESTS[(target, given)]
