"""Byte-level pins of the stdout of every ``causaloid`` subcommand.

The digests are sha256 sums of the stdout bytes of ``causaloid compress``
and ``causaloid validate`` on each bundled scenario, with and without the
tolerance and seed flags and, with the exit code, over a grid of
``--tol-rank`` values; of ``causaloid herald`` queries, of the
README's ``causaloid diagram`` commands and of the DOT and SVG text of
every scene the bundled scenarios can draw. They pin the report format, every
span rank and exterior count, every fiducial choice, every
``lambda_sha256``, the witness exteriors of an ill-defined herald and the
rendered scenes; a change that is meant to keep behaviour must keep them.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import causaloid.causaloid
from causaloid import cli, compositional, heralding, report, tomographic
from causaloid.cli import main
from causaloid.diagram import born_scene, emit_diagram, expansion_scene, product_scene
from causaloid.errors import UnknownEntry
from causaloid.report import checked_causaloid
from causaloid.scenario import parse_scenario
from causaloid.tomographic import fold_to_exterior

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


def _digest(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_every_bundled_scenario_is_pinned():
    assert sorted(DIGESTS) == sorted(SCENARIO_NAMES)


@pytest.mark.parametrize("command", ["compress", "validate"])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_are_pinned(capsys, name, command):
    argv = [command, "--scenario", scenario_path(name)]
    assert _digest(capsys, argv) == DIGESTS[name][command]


def test_one_process_carries_nothing_between_calls(capsys):
    # the parser and the preparation and effect sets are built once per
    # process; a flagged run and an argparse error leave no trace in the
    # plain runs after them, and a classical and a quantum scenario of the
    # same size get their own sets
    first, second = "qubit_channel", "classical_bit"
    flagged = ["--full-matrices", "--tol-rank", "1e-7", "--seed", "99"]
    assert main(["compress", "--scenario", scenario_path(first), *flagged]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--scenario", scenario_path(first), "--tol-rank", "tiny"])
    assert exc.value.code == 2
    capsys.readouterr()
    for name in (second, first):
        argv = ["compress", "--scenario", scenario_path(name)]
        assert _digest(capsys, argv) == DIGESTS[name]["compress"]


# (scenario, command, --tol-rank) -> (exit code, sha256 of stdout) over the
# rank-tolerance grid; above 1e-3 most scenarios fail their reconstruction
# check (exit 3, empty stdout), and the classical ones still pass at 0.5
EMPTY = hashlib.sha256(b"").hexdigest()

GRID_DIGESTS = {
    # adjacent_gates
    ("adjacent_gates", "compress", "1e-9"): (0, "fad75ea74e10b4291a7e5e3a6e553bfc28d054be9b1044d25f151c32ad3d147c"),
    ("adjacent_gates", "compress", "1e-7"): (0, "87fe5dba295dc94da09f7fba04391689b1c447fbcc1a47f66c788bfda6857ef3"),
    ("adjacent_gates", "compress", "1e-3"): (0, "56451e72d3847959b7bf8e4d5abe0d24331f7bdc57b7369c748ec6a74068b0ec"),
    ("adjacent_gates", "compress", "0.5"): (3, EMPTY),
    ("adjacent_gates", "compress", "2.0"): (3, EMPTY),
    ("adjacent_gates", "compress", "1e308"): (3, EMPTY),
    ("adjacent_gates", "validate", "1e-9"): (0, "26b12ce4aa25067509f20a4b768dbe64a98e1d95b515cc14eaec9358cc2f970b"),
    ("adjacent_gates", "validate", "1e-7"): (0, "26b12ce4aa25067509f20a4b768dbe64a98e1d95b515cc14eaec9358cc2f970b"),
    ("adjacent_gates", "validate", "1e-3"): (0, "26b12ce4aa25067509f20a4b768dbe64a98e1d95b515cc14eaec9358cc2f970b"),
    ("adjacent_gates", "validate", "0.5"): (3, EMPTY),
    ("adjacent_gates", "validate", "2.0"): (3, EMPTY),
    ("adjacent_gates", "validate", "1e308"): (3, EMPTY),
    # classical_bit
    ("classical_bit", "compress", "1e-9"): (0, "98c95a61c0977584e3a723c3e96eb41a9a82b229e1c8ca5ca9adb39d59cf3934"),
    ("classical_bit", "compress", "1e-7"): (0, "39b33d98fb925c4947247629c8c57ab04e704e6801f4b73c0a98be5d692af333"),
    ("classical_bit", "compress", "1e-3"): (0, "391d4e86adc595d2fcb908183500254a00ca8bdde03d0909f3558cbf679f6b84"),
    ("classical_bit", "compress", "0.5"): (0, "c9e11bd6c006b719a3c6701ec37e18637284ed04fb83ab50104ca93da4030d07"),
    ("classical_bit", "compress", "2.0"): (3, EMPTY),
    ("classical_bit", "compress", "1e308"): (3, EMPTY),
    ("classical_bit", "validate", "1e-9"): (0, "4ca33387f95799e4360c8fe7cb6de9a757c5423d8bab777588d7802eb74203da"),
    ("classical_bit", "validate", "1e-7"): (0, "4ca33387f95799e4360c8fe7cb6de9a757c5423d8bab777588d7802eb74203da"),
    ("classical_bit", "validate", "1e-3"): (0, "4ca33387f95799e4360c8fe7cb6de9a757c5423d8bab777588d7802eb74203da"),
    ("classical_bit", "validate", "0.5"): (0, "4ca33387f95799e4360c8fe7cb6de9a757c5423d8bab777588d7802eb74203da"),
    ("classical_bit", "validate", "2.0"): (3, EMPTY),
    ("classical_bit", "validate", "1e308"): (3, EMPTY),
    # classical_chain3
    ("classical_chain3", "compress", "1e-9"): (0, "83c14fa965462941cabdbf5a4874f86f115c53ac44abfa54531780f3627eb3aa"),
    ("classical_chain3", "compress", "1e-7"): (0, "8641b430ae5e92273a15648b0d89724b99338e0f07d831b2ba140a7c800f4b79"),
    ("classical_chain3", "compress", "1e-3"): (0, "857b1a2c1e6c2b2512b12dbb80fe8938254f7ccd21c1c0bd1b2859b1d833c400"),
    ("classical_chain3", "compress", "0.5"): (0, "cbe7c38ea7bd6c0476541387d3697186f59b5dd5d357fdb2e76b0d342d7fb241"),
    ("classical_chain3", "compress", "2.0"): (3, EMPTY),
    ("classical_chain3", "compress", "1e308"): (3, EMPTY),
    ("classical_chain3", "validate", "1e-9"): (0, "eee2b3c84c86a26cc50e9c55af605666f8192ab297ed3d7b9470fcc6d28d7930"),
    ("classical_chain3", "validate", "1e-7"): (0, "eee2b3c84c86a26cc50e9c55af605666f8192ab297ed3d7b9470fcc6d28d7930"),
    ("classical_chain3", "validate", "1e-3"): (0, "eee2b3c84c86a26cc50e9c55af605666f8192ab297ed3d7b9470fcc6d28d7930"),
    ("classical_chain3", "validate", "0.5"): (0, "eee2b3c84c86a26cc50e9c55af605666f8192ab297ed3d7b9470fcc6d28d7930"),
    ("classical_chain3", "validate", "2.0"): (3, EMPTY),
    ("classical_chain3", "validate", "1e308"): (3, EMPTY),
    # classical_trit
    ("classical_trit", "compress", "1e-9"): (0, "55987fde6bc3f7db239c6200599746ba515893cfc41848639be4b1c0fc71866a"),
    ("classical_trit", "compress", "1e-7"): (0, "81a3956c9281112c28dcc5cd2de0d93d695c672e76b5df9809dee5d4c84c5348"),
    ("classical_trit", "compress", "1e-3"): (0, "668434cf3cee1d7269742c2b47566b89b2b338439fd56b600809d83802cd2f2f"),
    ("classical_trit", "compress", "0.5"): (0, "8f1c4cac2bb1bccbb4f49d0c70507eaef7d677e9df6b967aec99f334bba75234"),
    ("classical_trit", "compress", "2.0"): (3, EMPTY),
    ("classical_trit", "compress", "1e308"): (3, EMPTY),
    ("classical_trit", "validate", "1e-9"): (0, "4846e6334dbb0b1ea31e29b61293449f6984922e9c33916865dd66a1d8ae0462"),
    ("classical_trit", "validate", "1e-7"): (0, "4846e6334dbb0b1ea31e29b61293449f6984922e9c33916865dd66a1d8ae0462"),
    ("classical_trit", "validate", "1e-3"): (0, "4846e6334dbb0b1ea31e29b61293449f6984922e9c33916865dd66a1d8ae0462"),
    ("classical_trit", "validate", "0.5"): (0, "4846e6334dbb0b1ea31e29b61293449f6984922e9c33916865dd66a1d8ae0462"),
    ("classical_trit", "validate", "2.0"): (3, EMPTY),
    ("classical_trit", "validate", "1e308"): (3, EMPTY),
    # polariser_chain
    ("polariser_chain", "compress", "1e-9"): (0, "1646e48c93db2b1691dda50c394d8fe0d196967ed18a5f38d260c25421609d72"),
    ("polariser_chain", "compress", "1e-7"): (0, "93e40bb0c67950b39b7dad4d7bec8694e8b81e2ce3f5f7aab5ac1ac3c173012b"),
    ("polariser_chain", "compress", "1e-3"): (0, "d081ca29e9e937896dd82fd2154ddae57495dea7d7351d2c1d9759a54f838c00"),
    ("polariser_chain", "compress", "0.5"): (3, EMPTY),
    ("polariser_chain", "compress", "2.0"): (3, EMPTY),
    ("polariser_chain", "compress", "1e308"): (3, EMPTY),
    ("polariser_chain", "validate", "1e-9"): (0, "6a413eed620830451b484b17d4a42f1197f5cba6823030dc3860c3acde4ceb72"),
    ("polariser_chain", "validate", "1e-7"): (0, "6a413eed620830451b484b17d4a42f1197f5cba6823030dc3860c3acde4ceb72"),
    ("polariser_chain", "validate", "1e-3"): (0, "6a413eed620830451b484b17d4a42f1197f5cba6823030dc3860c3acde4ceb72"),
    ("polariser_chain", "validate", "0.5"): (3, EMPTY),
    ("polariser_chain", "validate", "2.0"): (3, EMPTY),
    ("polariser_chain", "validate", "1e308"): (3, EMPTY),
    # qubit_channel
    ("qubit_channel", "compress", "1e-9"): (0, "b2a9591c96aad005da00390ee73605720a89b5b227258d43f8457b75e86f6573"),
    ("qubit_channel", "compress", "1e-7"): (0, "01576899de22c760e05689a2829226bbe558d66836ac64ef7be6ba84ae1da0b9"),
    ("qubit_channel", "compress", "1e-3"): (0, "272b2e1615e70b9fa27dd97d56da3818e15705672d9ff396826ec60aef70bddb"),
    ("qubit_channel", "compress", "0.5"): (3, EMPTY),
    ("qubit_channel", "compress", "2.0"): (3, EMPTY),
    ("qubit_channel", "compress", "1e308"): (3, EMPTY),
    ("qubit_channel", "validate", "1e-9"): (0, "3af3ee4d87efad106d85e299a76a32946b130bf663e7b5dd8870eae6a724a39e"),
    ("qubit_channel", "validate", "1e-7"): (0, "3af3ee4d87efad106d85e299a76a32946b130bf663e7b5dd8870eae6a724a39e"),
    ("qubit_channel", "validate", "1e-3"): (0, "3af3ee4d87efad106d85e299a76a32946b130bf663e7b5dd8870eae6a724a39e"),
    ("qubit_channel", "validate", "0.5"): (3, EMPTY),
    ("qubit_channel", "validate", "2.0"): (3, EMPTY),
    ("qubit_channel", "validate", "1e308"): (3, EMPTY),
    # qutrit_channel
    ("qutrit_channel", "compress", "1e-9"): (0, "1ff6e4fc9a6a84c37515c8b3aba2b7bdff5c5930a417b87e3eec662bec45b412"),
    ("qutrit_channel", "compress", "1e-7"): (0, "aac52dab0bd26d9b1ab5e33e33900215856307ba73860e00072510477437a48d"),
    ("qutrit_channel", "compress", "1e-3"): (0, "116f9470bd73b02efbad99bcf5a83e0828055b029006d0adf76be581b699f672"),
    ("qutrit_channel", "compress", "0.5"): (3, EMPTY),
    ("qutrit_channel", "compress", "2.0"): (3, EMPTY),
    ("qutrit_channel", "compress", "1e308"): (3, EMPTY),
    ("qutrit_channel", "validate", "1e-9"): (0, "c1c542c3833d455aa73b4bb5a3bf65a6022709b7a05e1977d4ed462fc1c3a742"),
    ("qutrit_channel", "validate", "1e-7"): (0, "c1c542c3833d455aa73b4bb5a3bf65a6022709b7a05e1977d4ed462fc1c3a742"),
    ("qutrit_channel", "validate", "1e-3"): (0, "c1c542c3833d455aa73b4bb5a3bf65a6022709b7a05e1977d4ed462fc1c3a742"),
    ("qutrit_channel", "validate", "0.5"): (3, EMPTY),
    ("qutrit_channel", "validate", "2.0"): (3, EMPTY),
    ("qutrit_channel", "validate", "1e308"): (3, EMPTY),
    # spacelike_bits
    ("spacelike_bits", "compress", "1e-9"): (0, "8f22bb85cc692e2e3f20c5e68d5752dff00fb083ff788b27c6134842a6fd1592"),
    ("spacelike_bits", "compress", "1e-7"): (0, "5d46a973f5b3b6e82b3fad9fc2b138125dde5c22bebc03f585792d822f1ce26d"),
    ("spacelike_bits", "compress", "1e-3"): (0, "e8cf3d49ab03b2a8698d8b7276279991fac8f7f63811ca92b221f2117401f682"),
    ("spacelike_bits", "compress", "0.5"): (0, "b2fd64a87cb2b2dff5081a35b0bd3c70ae6a2a564b14f68c437b1d79a2c41fa3"),
    ("spacelike_bits", "compress", "2.0"): (3, EMPTY),
    ("spacelike_bits", "compress", "1e308"): (3, EMPTY),
    ("spacelike_bits", "validate", "1e-9"): (0, "370e248d3ab757122e1f27417a66809f3c1680d3ee376565c09878e9e782d426"),
    ("spacelike_bits", "validate", "1e-7"): (0, "370e248d3ab757122e1f27417a66809f3c1680d3ee376565c09878e9e782d426"),
    ("spacelike_bits", "validate", "1e-3"): (0, "370e248d3ab757122e1f27417a66809f3c1680d3ee376565c09878e9e782d426"),
    ("spacelike_bits", "validate", "0.5"): (0, "370e248d3ab757122e1f27417a66809f3c1680d3ee376565c09878e9e782d426"),
    ("spacelike_bits", "validate", "2.0"): (3, EMPTY),
    ("spacelike_bits", "validate", "1e308"): (3, EMPTY),
}


@pytest.mark.parametrize(
    "case", sorted(GRID_DIGESTS), ids=lambda case: " ".join(case)
)
def test_tolerance_grid_is_pinned(capsys, case):
    name, command, tol = case
    code = main([command, "--scenario", scenario_path(name), "--tol-rank", tol])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == GRID_DIGESTS[case]


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
    assert _digest(capsys, argv) == HERALD_DIGESTS[(target, given)]


def test_herald_witness_folds_no_table(monkeypatch, capsys):
    # the witness is read from table slices: with the registry built
    # beforehand and every whole-table fold refused, the ill-defined herald
    # prints its pinned bytes
    built = checked_causaloid(parse_scenario(scenario_path("polariser_chain")))
    monkeypatch.setattr(cli, "checked_causaloid", lambda scenario: built)

    def refuse(*args, **kwargs):
        raise AssertionError("a herald folded the whole table")

    for module in (heralding, tomographic, compositional):
        monkeypatch.setattr(module, "fold_to_exterior", refuse, raising=False)
    argv = ["herald", "--scenario", scenario_path("polariser_chain"),
            "--target", "R3:6", "--given", "R1:0"]
    assert _digest(capsys, argv) == HERALD_DIGESTS[("R3:6", "R1:0")]


def test_default_report_builds_no_hex_strings(monkeypatch, capsys):
    # without --full-matrices each Λ is digested from its float64 bits, so
    # with matrix_hex refused every bundled report keeps its pinned bytes
    def refuse(*args, **kwargs):
        raise AssertionError("the default report built per-entry hex strings")

    for module in (causaloid.causaloid, report):
        monkeypatch.setattr(module, "matrix_hex", refuse)
    for name in sorted(DIGESTS):
        argv = ["compress", "--scenario", scenario_path(name)]
        assert _digest(capsys, argv) == DIGESTS[name]["compress"]


# stdout of ``compress`` with every tolerance and seed flag set, per scenario
FLAGGED_COMPRESS_DIGESTS = {
    "adjacent_gates": "c78e8068658563bb68a932f4e084d41f579485a164f8868dfa94533843c206a6",
    "classical_bit": "c7373fa1b0b224a425eca101d982f498bbe94d8b4eb8fe1309b2184b6a3b3868",
    "classical_chain3": "641f39553d92c17f9882a03fd2504892a6a2fffe8e2218bd46065430e682d2db",
    "classical_trit": "a8b48a89a4daeb99cbcc31352c7d864a5dafc57dc711135046100340afaf873f",
    "polariser_chain": "d93c55735477e895c6de04b5175fbcbd28d34b87e369d7bfbce89137218db631",
    "qubit_channel": "879069d17365817c8ffa91e83bce710d453b62517df5ad567c3d750b95dbad8a",
    "qutrit_channel": "37ad4655325b73006f13a61a13a586b9c8165e1a530c27bdc22b4378f8262d45",
    "spacelike_bits": "3c832301d2cdc143b74ad7c2d6a49f4d3551521b6c28f83d5b35c2d6840c453a",
}

FLAGGED_COMPRESS = ("--tol-rank", "1e-8", "--tol-herald", "1e-6", "--seed", "99")


@pytest.mark.parametrize("name", sorted(FLAGGED_COMPRESS_DIGESTS))
def test_flagged_output_bytes_are_pinned(capsys, name):
    path = scenario_path(name)
    argv = ("compress", "--scenario", path) + FLAGGED_COMPRESS
    assert _digest(capsys, argv) == FLAGGED_COMPRESS_DIGESTS[name]
    # 1e-7 moves no span rank, so the flag leaves validate's bytes alone
    argv = ("validate", "--scenario", path, "--tol-rank", "1e-7")
    assert _digest(capsys, argv) == DIGESTS[name]["validate"]


# (scenario, flags after --scenario) -> sha256 of stdout; the last herald
# query turns well defined once --tol-herald exceeds its 0.5 residual, and
# the product scene reads the same in either region order
FLAGGED_DIGESTS = {
    ("polariser_chain", "herald", "--target", "R2:2", "--given", "R1:0,R3:4",
     "--tol-herald", "1e-3"): HERALD_DIGESTS[("R2:2", "R1:0,R3:4")],
    ("polariser_chain", "herald", "--target", "R3:6", "--given", "R1:0",
     "--tol-herald", "1e-3"): HERALD_DIGESTS[("R3:6", "R1:0")],
    ("polariser_chain", "herald", "--target", "R3:6", "--given", "R1:0",
     "--tol-herald", "0.6"):
        "0acb8f83b3dded8f67f3b8e3609afc3ab9ea7277b35fbb1b23b4b115decbdff0",
    ("polariser_chain", "diagram", "--expr", "product:R1,R2", "--format", "dot"):
        "9a87d45c7a19bfe48f19ab539a4f5a076848beb8035e4092b868207b22310195",
    ("polariser_chain", "diagram", "--expr", "product:R2,R1", "--format", "dot"):
        "9a87d45c7a19bfe48f19ab539a4f5a076848beb8035e4092b868207b22310195",
    ("classical_bit", "diagram", "--expr", "born:R1", "--format", "svg"):
        "fbb943a9b486bf51235d56278b2dc1e0f5896dd466d6b26ca3a328c28c308979",
}


@pytest.mark.parametrize(
    "case", sorted(FLAGGED_DIGESTS), ids=lambda case: " ".join(case[1:])
)
def test_herald_and_diagram_bytes_are_pinned(capsys, case):
    name, command, *flags = case
    argv = [command, "--scenario", scenario_path(name), *flags]
    assert _digest(capsys, argv) == FLAGGED_DIGESTS[case]


def test_diagram_runs_the_span_checks(monkeypatch, capsys):
    import causaloid.report as report
    from causaloid.errors import SpanDeficient

    def deficient(*args, **kwargs):
        raise SpanDeficient("forced deficiency")

    monkeypatch.setattr(report, "validate_table_spans", deficient)
    argv = ["diagram", "--scenario", scenario_path("classical_bit"),
            "--expr", "born:R1"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: forced deficiency\n"


# (scenario, scene expression) -> sha256 of the DOT and of the SVG text of
# every scene the bundled scenarios can draw: born and expand for each
# region, product for each pair with a grouping entry; recorded before the
# scene builders were rewritten as layer lists
SCENE_DIGESTS = {
    ("classical_bit", "born:R1"): (
        "25746e111b4b2ce53cf038c4761ea883d3b659716263e2fe0afe6fe8ea4e3c67",
        "fbb943a9b486bf51235d56278b2dc1e0f5896dd466d6b26ca3a328c28c308979",
    ),
    ("classical_bit", "expand:R1"): (
        "b7f8512e7e47be36fa4254a325d8a1b5a098740e7a1cc3aa32a3c9327ae25d50",
        "1349d437a95494390acb4b78a9ff23759285712b0501a194ddd283434a63af84",
    ),
    ("classical_trit", "born:R1"): (
        "2f4369bafa3d7baadeb432c6bd76497722f349fdd4cb3719c6fd7e5abc0f1d6f",
        "bb1b4b0c5a468f162c5a412dcf717752abecb7af6b092b551d696c41b3598dfc",
    ),
    ("classical_trit", "expand:R1"): (
        "a4ea11e99ad3afa920c714b7e3f9b11170ab410a1514036363c0f20816d45171",
        "d18ac2b9ff7c5704ed54c66f5f44d0ccc030ac445aafc7b23f94ce4bea5647d0",
    ),
    ("qubit_channel", "born:R1"): (
        "9fb2a10a496972a72c6737794df4ed116bf5228b0fcd3bcaa077670250034ea2",
        "e950e21bfbe962969036eeec51d3f03c310ca5f5ad7500a2a65c7dd801809b46",
    ),
    ("qubit_channel", "expand:R1"): (
        "87f732968f6d1f924f67f5825328c3b1ac0fa999268e0014cac380c10c13af85",
        "4c353f9c34c1ffda1e0237a7f1da120ff74d8019310da56c95d6d5d8aad134b2",
    ),
    ("qutrit_channel", "born:R1"): (
        "a062ae0f1170ee85841528c0f0ae3c487cb2db9770753318c635b448220e26aa",
        "f7ff6e5e946a8bde89662270953ac741638f90620a5c38df9615b4162520f1df",
    ),
    ("qutrit_channel", "expand:R1"): (
        "e81d50c19c7069817d6597d0205a3c567d4b1f642644bbde1f421bb6c8bdad23",
        "2c30195d55f7b206f4f014b21c00b2025527a708a2baff26def7287a67e9780f",
    ),
    ("adjacent_gates", "born:R1"): (
        "9fb2a10a496972a72c6737794df4ed116bf5228b0fcd3bcaa077670250034ea2",
        "e950e21bfbe962969036eeec51d3f03c310ca5f5ad7500a2a65c7dd801809b46",
    ),
    ("adjacent_gates", "expand:R1"): (
        "87f732968f6d1f924f67f5825328c3b1ac0fa999268e0014cac380c10c13af85",
        "4c353f9c34c1ffda1e0237a7f1da120ff74d8019310da56c95d6d5d8aad134b2",
    ),
    ("adjacent_gates", "born:R2"): (
        "894f1f1b1c86b8db3e98f881c8db8412bc9fa3bc3e161a97ea104c28ef980c4e",
        "c9a637c741b7e112eef4834ead0779cf11d40219d03df0d7d9dad7d0b1a42241",
    ),
    ("adjacent_gates", "expand:R2"): (
        "298e5cd46a6d984a3d09b9cef45a7b5706a07fc566b993076f371026af3e4d0d",
        "443da5d9a8f4c6ff0d06f11f74b64c8420857de2c5662c09dbc2c8807de031d8",
    ),
    ("adjacent_gates", "product:R1,R2"): (
        "46de39aebd1185977b0e49e910cb396457e55f7294a3e23a73a3a1cf68826f0f",
        "5dc388dfb6152afef8a9f50162938ed93ae169143a3c680d2de5e08ea319c0a9",
    ),
    ("spacelike_bits", "born:R1"): (
        "25746e111b4b2ce53cf038c4761ea883d3b659716263e2fe0afe6fe8ea4e3c67",
        "fbb943a9b486bf51235d56278b2dc1e0f5896dd466d6b26ca3a328c28c308979",
    ),
    ("spacelike_bits", "expand:R1"): (
        "b7f8512e7e47be36fa4254a325d8a1b5a098740e7a1cc3aa32a3c9327ae25d50",
        "1349d437a95494390acb4b78a9ff23759285712b0501a194ddd283434a63af84",
    ),
    ("spacelike_bits", "born:R2"): (
        "56c8f26663509312cb33901ecbe3a53d2a48c4cbaf041d6d0bd1d3d4c7b58b45",
        "cfb9ea60630dfc56cdbfcf4c294e2241c1ef1295ff0c977880403e6c4d10c690",
    ),
    ("spacelike_bits", "expand:R2"): (
        "340136365bdb4b777934a672a01df95c88b1fa028b3667931d8b1301d2cd148e",
        "e9ead13dbf7387975ea14b26663ef0d0c96e8db1ce9a689246c17f3bd71a7e39",
    ),
    ("spacelike_bits", "product:R1,R2"): (
        "cee338066d76b38e81b20fa02095fcb847896205dc11754d688ddeece9e4793d",
        "e1852c3c17c365636baabc12bd15e6b9873875da7b1e4a00ac7521d50ea51605",
    ),
    ("polariser_chain", "born:R1"): (
        "8ff95006be01ac78d8c93774b2f7e946434bad8c1d33ab258a780403e2c33e9c",
        "b3961818adafa53bd6f8cf19e03be7394cf28277d244f6a350385862ec3db333",
    ),
    ("polariser_chain", "expand:R1"): (
        "6ea85ef9804cf4dd68af68f94e6e72bc6f244cc4c2abe69b58406873ed3390d7",
        "feed555f68f2cc33834e7c4c7ed05fee5f3e4168118f7fe18d16a62aa4f2ff21",
    ),
    ("polariser_chain", "born:R2"): (
        "0d95fd936bb02a816ea1c1ee3e0959b00fede22d02981d82edd273d62017d372",
        "3193eb2162dc70a86ae907f14bcbe1fb1ac25df1b272f848c25fb375236bc200",
    ),
    ("polariser_chain", "expand:R2"): (
        "b281eb7305b21f1884ef3e1f7deaf1ee6371120f70324bc32ef3bda2391253cd",
        "cc99f44916ddb860e5af0f7246c4b88b9a8ba5a6be73d5418a17ad9e2e8d17bb",
    ),
    ("polariser_chain", "born:R3"): (
        "610e3ee15170ff4ff93d55b1e03b46478367d06f2870ffa2617de0a0883eb357",
        "0bd02bf27fba312a8a063ce9b8836b76e109b78e46eff40715ed95280e54db30",
    ),
    ("polariser_chain", "expand:R3"): (
        "bc0e03aa980ffb170428f0bb5b4bbc4e518c3dc36185638b4c5ab5636861a626",
        "b40d8d7d3da31ca33af8931b96b3c1d5a9d38adb133888e78756f35d568fb7f7",
    ),
    ("polariser_chain", "product:R1,R2"): (
        "9a87d45c7a19bfe48f19ab539a4f5a076848beb8035e4092b868207b22310195",
        "f17eaba102666975d78fcbd4cc8fac413eb88dd3f3c8b4bf38b1c0f401a96bc2",
    ),
    ("polariser_chain", "product:R1,R3"): (
        "a1473732d8d3c34a99ef5f160d23ed06f9e5c32c948570bc753013bd473d886c",
        "80a929e8b061bd97d617fd4f51d424609208055008e5299d2403f8661b7ae6d9",
    ),
    ("polariser_chain", "product:R2,R3"): (
        "5ea2178311e8776410980618f7b66d3831a6c42ff436b046a4f36c920fdf98be",
        "fb9a508716757c57e57e6c1314143cba5b5211e486add419e2e1a23c1ae2f7b0",
    ),
    ("classical_chain3", "born:R1"): (
        "25746e111b4b2ce53cf038c4761ea883d3b659716263e2fe0afe6fe8ea4e3c67",
        "fbb943a9b486bf51235d56278b2dc1e0f5896dd466d6b26ca3a328c28c308979",
    ),
    ("classical_chain3", "expand:R1"): (
        "b7f8512e7e47be36fa4254a325d8a1b5a098740e7a1cc3aa32a3c9327ae25d50",
        "1349d437a95494390acb4b78a9ff23759285712b0501a194ddd283434a63af84",
    ),
    ("classical_chain3", "born:R2"): (
        "56c8f26663509312cb33901ecbe3a53d2a48c4cbaf041d6d0bd1d3d4c7b58b45",
        "cfb9ea60630dfc56cdbfcf4c294e2241c1ef1295ff0c977880403e6c4d10c690",
    ),
    ("classical_chain3", "expand:R2"): (
        "340136365bdb4b777934a672a01df95c88b1fa028b3667931d8b1301d2cd148e",
        "e9ead13dbf7387975ea14b26663ef0d0c96e8db1ce9a689246c17f3bd71a7e39",
    ),
    ("classical_chain3", "born:R3"): (
        "9c916faf74a94c40626d0d5b4a61801771b732c498b7f2b6172b7a19f59bcac4",
        "757498c968c1d085d4438df12d8d153e96a2e7e68af388d2c9217fddf40c6aa9",
    ),
    ("classical_chain3", "expand:R3"): (
        "9e3f8ba00c7bebb744eafc946fb6a8e657e7b318cd1a33b8e8f8f973cc22dfae",
        "2a3b02d9a1d2f392931c049016a05426b84842f95dcc4867b84c30ffbb89d6d4",
    ),
    ("classical_chain3", "product:R1,R2"): (
        "b56db5bd627ec57528b836530fe37573e10b664731c1e704aad65a0d372d4ddb",
        "68a4213ee56bdcb40faec645bee4953a44166af7d6b916dcf4fa2b0d5bca42ab",
    ),
    ("classical_chain3", "product:R1,R3"): (
        "1872fe15acb81ddb387e510a61092874a75aa2d5fe70978127a96750e54f1e50",
        "78be8b284d9b0cddf79c619e073e33ee1099c8ba860bb05783845a9cc30d476b",
    ),
    ("classical_chain3", "product:R2,R3"): (
        "d624b8af3752fc874057e6a415769fe0e1dadf3190a01b1ef351eaeba7ca2a99",
        "04e77314197229694d4e51436598f995866032c6d46c8f762b3b8e6dd7eb5f00",
    ),
}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scene_is_pinned(scenarios, name):
    scenario = scenarios(name)
    _, _, causaloid = checked_causaloid(scenario)
    declared = dict(zip(scenario.region_names, scenario.regions))
    scenes = {}
    for region in scenario.region_names:
        scenes[f"born:{region}"] = born_scene(causaloid, declared[region])
        scenes[f"expand:{region}"] = expansion_scene(causaloid, declared[region])
    for first, second in itertools.combinations(scenario.region_names, 2):
        try:
            scene = product_scene(causaloid, declared[first], declared[second])
        except UnknownEntry:
            continue
        scenes[f"product:{first},{second}"] = scene
    pinned = {expr: pins for (n, expr), pins in SCENE_DIGESTS.items() if n == name}
    assert sorted(scenes) == sorted(pinned)
    for expr, scene in scenes.items():
        got = tuple(
            hashlib.sha256(emit_diagram(scene, fmt).encode("utf-8")).hexdigest()
            for fmt in ("dot", "svg")
        )
        assert got == pinned[expr], (name, expr)


def _contract(scene, tensors):
    """Contract a scene over its port names: each non-dot node's tensor,
    looked up by its text, carries one axis per port; a dot only marks the
    index its neighbours share."""
    labels: dict[str, int] = {}
    operands = []
    for node in scene.nodes:
        if node.kind == "dot":
            continue
        tensor = tensors[node.text]
        assert tensor.shape == tuple(size for _, size in node.ports), node.text
        operands += [tensor, [labels.setdefault(name, len(labels)) for name, _ in node.ports]]
    return float(np.einsum(*operands, []))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_pinned_scene_contracts_to_its_table_entry(scenarios, name):
    # r[R] is a label's row of Lambda[R] (a one-hot over the labels when
    # Lambda[R] is drawn), the hybrid glyph the grouping's Lambda as
    # (|Omega1|, |Omega2|, |K|), and p[...] the fiducial rows of one column
    # of the table folded to the drawn regions
    scenario = scenarios(name)
    table, _, causaloid = checked_causaloid(scenario)
    declared = dict(zip(scenario.region_names, scenario.regions))
    rng = np.random.default_rng(SCENARIO_NAMES.index(name))
    exprs = [expr for n, expr in SCENE_DIGESTS if n == name]
    assert exprs
    for expr in exprs:
        kind, _, names = expr.partition(":")
        regions = sorted(declared[n] for n in names.split(","))
        entries = [causaloid.tomographic(r) for r in regions]
        vals = fold_to_exterior(table, regions)[0]
        for _ in range(3):
            labels = [int(rng.integers(e.gamma.size)) for e in entries]
            column = int(rng.integers(vals.shape[-1]))
            want = vals[(*labels, column)]
            rows = [e.matrix[g] for e, g in zip(entries, labels)]
            if kind == "product":
                scene = product_scene(causaloid, *regions)
                pair = causaloid.product_entry([e.omega for e in entries])
                picks = np.unravel_index(np.array(pair.omega.indices), pair.omega.dims)
                fiducial = [np.array(e.omega.indices)[q] for e, q in zip(entries, picks)]
                tensors = {
                    "(x)^Lambda": pair.matrix.reshape(pair.omega.dims + (-1,)),
                    f"p[{pair.region}]": vals[(*fiducial, column)],
                }
            else:
                (region,), (entry,), (label,) = regions, entries, labels
                tensors = {f"p[{region}]": vals[list(entry.omega.indices), column]}
                if kind == "born":
                    scene = born_scene(causaloid, region)
                else:
                    scene = expansion_scene(causaloid, region)
                    tensors[f"Lambda[{region}]"] = entry.matrix
                    rows = [np.eye(entry.gamma.size)[label]]
            tensors.update((f"r[{r}]", row) for r, row in zip(regions, rows))
            assert abs(_contract(scene, tensors) - want) <= 1e-13, (expr, labels, column)


# report fields that carry a float's last bits, which may differ between
# OpenBLAS kernels: every Λ digest and the herald floats (herald p and
# residual, a witness's p and spread)
KERNEL_FLOAT_FIELDS = frozenset({"lambda_sha256", "residual", "p", "spread"})

# 0.5 is left out: two rows of adjacent_gates lie on that threshold to the
# last bit, so a kernel may decide them either way
KERNEL_TOLERANCES = ("1e-9", "1e-3")

# runs _kernel_decisions in a child process, with the tests and the package
# importable from the paths given after it
KERNEL_CHILD = (
    "import json, sys; sys.path[:0] = sys.argv[1:]; "
    "import test_cli_digests; print(json.dumps(test_cli_digests._kernel_decisions()))"
)


def _openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS runs in this process, or None if
    the library or its core-name symbol is not found."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _without_kernel_floats(value):
    if isinstance(value, dict):
        return {k: _without_kernel_floats(v) for k, v in value.items() if k not in KERNEL_FLOAT_FIELDS}
    if isinstance(value, list):
        return [_without_kernel_floats(v) for v in value]
    return value


def _kernel_decisions() -> dict:
    """This process's OpenBLAS kernel, and per bundled scenario and rank
    tolerance the exit code and report of ``compress``, kernel floats
    dropped."""
    runs = {}
    for name in SCENARIO_NAMES:
        for tol in KERNEL_TOLERANCES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["compress", "--scenario", scenario_path(name), "--tol-rank", tol])
            text = out.getvalue()
            runs[f"{name} {tol}"] = [code, _without_kernel_floats(json.loads(text)) if text else None]
    return {"core": _openblas_core(), "runs": runs}


def second_kernel_run(child_code: str) -> tuple[str, dict]:
    """This process's OpenBLAS kernel, and the JSON object (with the
    child's kernel under ``core``) that ``child_code`` prints in a child
    process on ``OPENBLAS_CORETYPE=Haswell``, the tests and the package
    importable from the paths given after it. The variable is set for the
    child only. Skips when the kernel's name cannot be read, the child
    fails, or the variable leaves the kernel unchanged."""
    core = _openblas_core()
    if core is None:
        pytest.skip("numpy's bundled OpenBLAS or its core-name symbol was not found")
    tests = pathlib.Path(__file__).resolve().parent
    package = pathlib.Path(causaloid.__file__).resolve().parent.parent
    child = subprocess.run(
        [sys.executable, "-c", child_code, str(tests), str(package)],
        env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    if child.returncode:
        pytest.skip(f"the child on OPENBLAS_CORETYPE=Haswell failed: {child.stderr[-500:]}")
    theirs = json.loads(child.stdout)
    if theirs["core"] == core:
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell leaves the kernel at {core}")
    return core, theirs


def test_decisions_do_not_depend_on_the_blas_kernel():
    # fiducial sets, ranks, adjacency, herald verdicts and exit codes agree
    # on a second OpenBLAS kernel, chosen for the child process only
    core, theirs = second_kernel_run(KERNEL_CHILD)
    ours = _kernel_decisions()
    for run, result in ours["runs"].items():
        assert theirs["runs"][run] == result, f"{run}: {theirs['core']} against {core}"
