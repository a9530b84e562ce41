"""Guards for the in-repo tooling that instruments the package from outside."""
from __future__ import annotations

import __future__
import ast
import functools
import hashlib
import importlib
import importlib.util
import json
import pathlib
import re
import shlex
import sys
import types

import causaloid
import causaloid.cli
import causaloid.operators
from causaloid import (
    Card,
    Chain,
    ProcedureSpec,
    QuantumSpec,
    dump_stacks,
    estimate_prob,
    expand,
    ic_effects,
    ic_preparations,
    joint_prob,
    load_causaloid,
    load_stacks,
    meta_compress,
    parse_scenario,
    polariser_family,
    sample_stacks,
    save_causaloid,
)
from causaloid.backends import TheorySpec
from causaloid.cli import main
from causaloid.report import checked_causaloid

from conftest import SCENARIO_NAMES, scenario_path

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


# the count metrics each contract workload's traced operations must record;
# their count functions read result members (AdjacencyGraph.pairs,
# PairCompression.first and second, HeraldResult.well_defined,
# ProbTable.n_entries, Causaloid.composites)
TRACED_COUNTS = {
    "compress_bundled": {
        "backends.table_builds", "backends.table_entries", "backends.exteriors",
        "tables.greedy_rows_scanned", "tables.greedy_rows_kept",
        "tomographic.solve_calls", "causaloid.entries_built",
        "compositional.adjacency_pairs", "compositional.adjacency_pairs_redundant",
        "report.bytes",
    },
    "query": {"heralding.well_defined", "heralding.ill_defined"},
    "sample": {"backends.sample_cards_calls", "operational.runs"},
}


def test_benchmark_workloads_pass_their_own_checks(tmp_path, monkeypatch, capsys):
    # each workload of BENCHMARK.json, run briefly on the checkout's bench/
    # files, first untraced and then with bench/tracer.py's Tracer
    # installed: every operation must pass the workload's own oracle check
    # and every count function must read what it expects of the results,
    # so a change to what bench/ reads of the package fails here and not
    # only in the benchmark run; bench/ is only read
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    tracing = _load_tracer()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(item["name"] for item in contract["workloads"]) == sorted(TRACED_COUNTS)
    for item in contract["workloads"]:
        cls = workloads.WORKLOADS[item["name"]]
        workdir = tmp_path / cls.name
        workdir.mkdir()
        tracer = tracing.Tracer()
        wl = cls(causaloid, str(ROOT), str(workdir), 3, tracer)
        wl.setup()
        wl.prepare()
        # the query mix repeats every 100 operations
        ops = 100 if cls.name == "query" else 2
        for i in range(ops):
            assert wl.check(i, wl.op(i, wl.draw(i))), (cls.name, wl.kind(i), i)
        if cls.name == "query":
            assert {wl.kind(i) for i in range(ops)} == {k for k, _ in workloads.QUERY_MIX}
        first = tracer.n_requests
        tracer.install()
        try:
            for i in range(ops, 2 * ops):
                with tracer.request_span(wl.kind(i)):
                    out = wl.op(i, wl.draw(i))
                assert wl.check(i, out), (cls.name, "traced", wl.kind(i), i)
        finally:
            tracer.uninstall()
        summary = tracing.summarize(tracer, set(range(first, tracer.n_requests)))
        assert TRACED_COUNTS[cls.name] <= set(summary["totals"]), cls.name
        assert wl.finish(2 * ops) == 0, cls.name
    capsys.readouterr()


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


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the Library section's code uses the public names; run from a scratch
    # directory, it must still work and write its registry file there
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        code = block.replace('"scenarios/', f'"{ROOT / "scenarios"}/')
        exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "registry.json").is_file()
    capsys.readouterr()


def test_star_import_binds_only_public_names():
    # the submodules and the __future__ feature the package imports are not
    # part of its names
    for name in causaloid.__all__:
        value = getattr(causaloid, name)
        assert not isinstance(value, (types.ModuleType, __future__._Feature)), name
    assert "Causaloid" in causaloid.__all__ and "annotations" not in causaloid.__all__


# the package's 116 public names, sorted and space-joined, as a digest: a
# list of them here would count as uses of every one for the unused
# definition guard below
PUBLIC_NAMES_SHA256 = "a65dfb8fd62a78d11325cfc445b5251f5e01c55c05b32346f14a6557e7be835b"


def test_the_package_exports_a_fixed_set_of_names():
    names = " ".join(sorted(causaloid.__all__))
    assert len(causaloid.__all__) == 116
    assert hashlib.sha256(names.encode()).hexdigest() == PUBLIC_NAMES_SHA256, names


def test_each_exported_name_is_defined_in_the_one_module_listing_it():
    # the package names nothing itself: it star-imports its modules. A name
    # a module lists but only imports, or a name two modules list, would let
    # one star import silently shadow another
    package = (ROOT / "src" / "causaloid" / "__init__.py").read_text(encoding="utf-8")
    imports = [n for n in ast.parse(package).body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert all([a.name for a in n.names] == ["*"] for n in imports)
    owner = {}
    for module in (n.module for n in imports):
        tree = ast.parse((ROOT / "src" / "causaloid" / f"{module}.py").read_text(encoding="utf-8"))
        defined, listed = set(), None
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                if "__all__" in bound:
                    listed = ast.literal_eval(node.value)
                defined |= bound
        assert listed, module
        assert sorted(set(listed) - defined) == [], module
        for name in listed:
            assert owner.setdefault(name, module) == module, name
    assert sorted(owner) == sorted(causaloid.__all__)


def _uses(names: set[str]) -> set[tuple[str, str, str]]:
    """(file, enclosing function, name) of every ``json.<name>`` and every
    bare name ``<name>`` (a builtin such as ``open``) in ``src/causaloid``."""
    found = set()
    for path in sorted((ROOT / "src" / "causaloid").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(tree, "<module>")]
        while scopes:
            node, scope = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, ast.FunctionDef) else scope
                if isinstance(child, ast.ImportFrom):
                    assert child.module != "json", (path.name, "import json only")
                if isinstance(child, ast.Import):
                    assert all(a.asname is None for a in child.names if a.name == "json")
                if isinstance(child, ast.Attribute) and child.attr in names:
                    if isinstance(child.value, ast.Name) and child.value.id == "json":
                        found.add((path.name, scope, child.attr))
                if isinstance(child, ast.Name) and child.id in names:
                    found.add((path.name, scope, child.id))
                scopes.append((child, inner))
    return found


def test_one_json_writer_one_json_reader_one_file_opener():
    # json_text is the one JSON text policy and read_json the one parser;
    # only errors.py opens a file
    assert _uses({"dumps", "dump", "loads", "load"}) == {
        ("causaloid.py", "json_text", "dumps"),
        ("errors.py", "read_json", "loads"),
    }
    assert _uses({"open"}) == {
        ("errors.py", "read_text", "open"),
        ("errors.py", "write_text", "open"),
    }


def test_src_never_grows_an_array_by_restacking():
    # np.vstack, np.hstack and np.append copy the whole array on every call,
    # so growing an array with them in a loop is quadratic; preallocate
    restacking = {"vstack", "hstack", "append"}
    found = []
    for path in sorted((ROOT / "src" / "causaloid").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in restacking
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                found.append((path.name, node.lineno, node.attr))
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [(path.name, node.lineno, a.name) for a in node.names if a.name in restacking]
    assert found == []


def _referenced_names(path: pathlib.Path, outside: str | None = None) -> set[str]:
    """Every name a Python file uses: bare names it reads, attribute names
    and the dotted words of its non-docstring string constants (the traced
    benchmark names its targets as strings). Import statements, ``__all__``
    entries, the names an assignment binds and the body of a function or
    class named ``outside`` are not uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.add(node)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == outside:
            skip.add(node)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skip.add(node.value)
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                skip.add(body[0])
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_definition_in_src_is_used():
    # a function, class, method or module-level constant that nothing in
    # src/, tests/, bench/ or the README reads is dead weight; its own def
    # line or assignment, __all__ and imports do not count as uses
    defined, constants = set(), set()
    for path in sorted((ROOT / "src" / "causaloid").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add((path.name, node.name))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants |= {
                    (path.name, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name) and name.id != "__all__"
                }
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _referenced_names(path)
    assert len(defined) > 200 and len(constants) > 30
    assert sorted(d for d in defined | constants if d[1] not in used) == []


def test_unexported_modules_export_only_what_is_read():
    # operators and cli are not star-imported by the package, so the
    # public-name pins above do not see their __all__: each name listed
    # there must be read in src/ or bench/ outside its own definition
    files = [p for folder in ("src", "bench") for p in sorted((ROOT / folder).rglob("*.py"))]
    for module in (causaloid.operators, causaloid.cli):
        unread = [name for name in module.__all__
                  if not any(name in _referenced_names(p, outside=name) for p in files)]
        assert unread == [], module.__name__


def test_every_operators_function_another_module_calls_is_exported():
    # the other modules reach operators as ``from . import operators as
    # <alias>`` and ``<alias>.<name>``, or as ``from .operators import <name>``
    called, functions = set(), set()
    for path in sorted((ROOT / "src" / "causaloid").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "operators":
            functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == "operators":
                    called |= {a.name for a in node.names}
                elif node.module is None:
                    aliases |= {a.asname or a.name for a in node.names if a.name == "operators"}
        called |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        }
    assert "kraus_transfers" in called
    assert sorted(called & functions - set(causaloid.operators.__all__)) == []


# members only bench/ reaches: the name scan above counts bench/ as a
# caller, the drive below does not run it
BENCH_ONLY_MEMBERS = {
    "tables.ProbTable.n_entries",  # bench/tracer.py
}


def _wrap_class_members(monkeypatch) -> tuple[set[str], set[str]]:
    """Wrap every method, property and cached_property defined on a class
    of ``causaloid``, dunders excepted, to record each call; return the
    members and the set the wrappers fill."""
    members, reached = set(), set()

    def recording(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for path in sorted((ROOT / "src" / "causaloid").glob("*.py")):
        module = importlib.import_module(f"causaloid.{path.stem}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for attr, value in list(vars(cls).items()):
                if attr.startswith("__") and attr.endswith("__"):
                    continue
                name = f"{path.stem}.{cls.__qualname__}.{attr}"
                if isinstance(value, types.FunctionType):
                    wrapped = recording(name, value)
                elif isinstance(value, (staticmethod, classmethod)):
                    wrapped = type(value)(recording(name, value.__func__))
                elif isinstance(value, property):
                    wrapped = property(recording(name, value.fget), value.fset, value.fdel)
                elif isinstance(value, functools.cached_property):
                    wrapped = functools.cached_property(recording(name, value.func))
                    wrapped.__set_name__(cls, attr)
                else:
                    continue
                members.add(name)
                monkeypatch.setattr(cls, attr, wrapped)
    return members, reached


def test_every_class_member_is_reached_by_the_program(tmp_path, monkeypatch, capsys):
    # the name scan above counts a same-named attribute of another class as
    # a use, and tests as callers; here only the command line, the registry
    # round trip, the oracle and the sampler count, run as a user runs them
    members, reached = _wrap_class_members(monkeypatch)
    for name in SCENARIO_NAMES:
        scenario = parse_scenario(scenario_path(name))
        first = scenario.region_names[0]
        argvs = [
            ["compress", "--full-matrices"],
            ["validate"],
            ["herald", "--target", f"{first}:0"],
            ["diagram", "--expr", f"born:{first}"],
            ["diagram", "--expr", f"expand:{first}", "--format", "svg"],
        ]
        if len(scenario.region_names) > 1:
            argvs.append(["diagram", "--expr", "product:" + ",".join(scenario.region_names[:2])])
        for argv in argvs:
            assert main([argv[0], "--scenario", scenario_path(name), *argv[1:]]) == 0, argv
    capsys.readouterr()

    scenario = parse_scenario(scenario_path("polariser_chain"))
    table, _, built = checked_causaloid(scenario)
    registry = str(tmp_path / "registry.json")
    save_causaloid(meta_compress(built, ["tensor-factorization"]), registry)
    assert expand(load_causaloid(registry)).composites
    labels = {region: gamma.labels[0] for region, gamma in zip(table.regions, table.gammas)}
    joint_prob(scenario.spec, labels, table.exteriors[0])
    stacks = str(tmp_path / "stacks.txt")
    procedure = ProcedureSpec({1: 0, 2: 1, 3: 0})
    dump_stacks(sample_stacks(scenario.spec, procedure, 200, seed=3), stacks)
    estimate_prob(load_stacks(stacks), [Card(3, 0, 0)], [Card(1, 0, 0)])
    assert sorted(members - reached - BENCH_ONLY_MEMBERS) == []
