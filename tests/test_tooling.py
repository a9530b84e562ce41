"""Guards for the in-repo tooling that instruments the package from outside."""
from __future__ import annotations

import importlib
import importlib.util
import pathlib
import re
import shlex

from causaloid import (
    Chain,
    ProcedureSpec,
    QuantumSpec,
    ic_effects,
    ic_preparations,
    polariser_family,
    sample_stacks,
)
from causaloid.backends import TheorySpec
from causaloid.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # the traced benchmark wraps each target by name; a renamed or deleted
    # function would break it
    for mod_name, attr, *_ in _load_tracer().TARGETS:
        owner = importlib.import_module(f"causaloid.{mod_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"causaloid.{mod_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"causaloid.{mod_name}.{attr}"


def test_sample_stacks_draws_in_one_sample_cards_call(monkeypatch):
    # the traced benchmark times sampling through TheorySpec.sample_cards,
    # so every draw of a batch must happen inside one call of it
    calls = []
    draw = TheorySpec.sample_cards

    def counted(self, *args):
        calls.append(args)
        return draw(self, *args)

    monkeypatch.setattr(TheorySpec, "sample_cards", counted)
    spec = QuantumSpec(
        chains=(Chain("photon", 2, (1, 2)),),
        instruments=(polariser_family(1, [0, 45]), polariser_family(2, [30])),
        preparations=(ic_preparations("quantum", 2),),
        effects=(ic_effects("quantum", 2),),
    )
    stacks = sample_stacks(spec, ProcedureSpec({1: 1, 2: 0}), 200, seed=9)
    assert len(stacks) == 200
    assert len(calls) == 1


def _readme_commands() -> list[list[str]]:
    """The arguments of every ``causaloid ...`` line in the README's sh blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["causaloid"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_run(tmp_path, capsys):
    # the documented commands, run from any directory with their output
    # files kept out of the checkout, must all succeed
    commands = _readme_commands()
    assert len(commands) >= 5
    for words in commands:
        argv = list(words)
        for flag, root in (("--scenario", ROOT), ("--out", tmp_path)):
            if flag in argv:
                i = argv.index(flag) + 1
                argv[i] = str(root / argv[i])
        assert main(argv) == 0, " ".join(words)
    capsys.readouterr()
