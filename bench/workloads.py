"""The benchmark workloads: the three of BENCHMARK.json and compress_chain.

Each workload is driven closed-loop by one caller (``run.py``): ``setup``
builds the inputs (timed, repeated), ``prepare`` readies what the oracle
and the input draws need (untimed), ``warmup`` runs discarded operations,
then for each operation ``draw`` makes its input (untimed), ``op`` is timed
and ``check`` compares that operation's output with the slow exact oracle
outside the timed region. ``finish`` runs the run-level oracle checks and
returns how many operations they failed.

Timed calls look the program's functions up on their module at call time
(``cz.heralding.herald``), so a traced run sees them through the tracer's
wrappers. Oracle code uses references taken before any wrapper exists.
"""
from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import math
import os
import random
from types import SimpleNamespace

import numpy as np

import gen

RECON_TOL = 1e-8
RECON_SAMPLES = 24
SAMPLE_SIGMAS = 5.0

# acceptance-gate integers on the bundled scenarios:
# scenario -> (per-region fiducial sizes, [(composite size, product size)])
BUNDLED_GATES = {
    "classical_bit": ((4,), []),
    "classical_trit": ((9,), []),
    "qubit_channel": ((16,), []),
    "qutrit_channel": ((81,), []),
    "spacelike_bits": ((4, 4), [(16, 16)]),
    "adjacent_gates": ((16, 16), [(16, 256)]),
}


def oracle_refs(cz) -> SimpleNamespace:
    """The program functions the oracle uses, captured before tracing."""
    return SimpleNamespace(
        build_prob_table=cz.backends.build_prob_table,
        build_causaloid=cz.causaloid.build_causaloid,
        joint_prob=cz.backends.joint_prob,
        fold_to_exterior=cz.tomographic.fold_to_exterior,
        conditional_sweep=cz.heralding.conditional_sweep,
        conditional_from_table=cz.heralding.conditional_from_table,
        herald_query=cz.heralding.HeraldQuery.from_labels,
        r_vector=cz.tomographic.r_vector,
        r_vector_cls=cz.tomographic.RVector,
        state_vector_cls=cz.tomographic.StateVector,
        causaloid_cls=cz.causaloid.Causaloid,
        meta_compress=cz.causaloid.meta_compress,
        expand=cz.causaloid.expand,
        to_dict=cz.causaloid.causaloid_to_dict,
        complete_effect=cz.backends.complete_effect,
        exterior_cls=cz.tables.ExteriorConfiguration,
        card_cls=cz.operational.Card,
    )


def matrix_digest(matrix) -> str:
    """The report's sha256 digest of an expansion matrix's hex rows."""
    rows = [[float(v).hex() for v in row] for row in matrix]
    blob = json.dumps(rows, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def decode_product_row(flat: int, dims) -> list[int]:
    """Flat product-row index to per-factor positions, last factor fastest."""
    pos = []
    for d in reversed(dims):
        flat, q = divmod(flat, d)
        pos.append(q)
    return pos[::-1]


def write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


class Workload:
    name = ""
    op_unit = "operation"
    warmup_note = ""

    def __init__(self, cz, root: str, workdir: str, seed: int, tracer):
        self.cz = cz
        self.o = oracle_refs(cz)
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.tracer = tracer

    def kind(self, i: int) -> str:
        return self.op_unit

    def draw(self, i: int):
        """The input of operation ``i``, drawn before its clock starts."""
        return None

    def finish(self, attempted: int) -> int:
        return 0

    def extra_metrics(self, latencies: list[float]) -> dict:
        return {}


# ---------------------------------------------------------------------------
# compress workloads
# ---------------------------------------------------------------------------

class _Compress(Workload):
    """One operation is one pass of ``causaloid compress`` over a scenario set."""

    op_unit = "pass"

    def scenario_docs(self) -> list[tuple[str, str]]:
        raise NotImplementedError

    def setup(self) -> None:
        self.items = []
        self.parsed = {}
        os.makedirs(os.path.join(self.workdir, "reports"), exist_ok=True)
        for name, path in self.scenario_docs():
            out = os.path.join(self.workdir, "reports", f"{name}.json")
            self.parsed[name] = self.cz.scenario.parse_scenario(path)
            self.items.append((name, path, out))
        self.first_bytes: dict[str, bytes] = {}
        self.first_ok: dict[str, bool] = {}

    def prepare(self) -> None:
        pass

    def _run_set(self, items) -> list[int]:
        codes = []
        for name, path, out in items:
            with self.tracer.span(f"compress:{name}", tag=name):
                codes.append(
                    self.cz.cli.main(["compress", "--scenario", path, "--out", out])
                )
        return codes

    def op(self, i: int, case):
        return self._run_set(self.items)

    def check(self, i: int, codes) -> bool:
        ok = all(code == 0 for code in codes)
        for name, _, out in self.items:
            try:
                with open(out, "rb") as fh:
                    data = fh.read()
            except OSError:
                return False
            if name not in self.first_bytes:
                self.first_bytes[name] = data
                self.first_ok[name] = self.gate_ok(name, json.loads(data))
            ok = ok and data == self.first_bytes[name] and self.first_ok[name]
        return ok

    def gate_ok(self, name: str, report: dict) -> bool:
        return True

    def finish(self, attempted: int) -> int:
        """Rebuild each registry through the library and check it.

        The library's expansion matrices must carry the digests the CLI
        report printed, and a seeded sample of reconstructions through them
        must match ``joint_prob`` within 1e-8. Every pass reported the
        same bytes (checked per pass), so one bad scenario fails them all.
        """
        for name, _, _ in self.items:
            if name not in self.first_bytes or not self.reconstruction_ok(name):
                return attempted
        return 0

    def reconstruction_ok(self, name: str) -> bool:
        o = self.o
        s = self.parsed[name]
        report = json.loads(self.first_bytes[name])
        table = o.build_prob_table(s.spec, s.regions)
        c = o.build_causaloid(
            table, s.composites, tol_rank=s.tol_rank, tol_residual=s.tol_residual
        )
        digests = [matrix_digest(e.matrix) for e in c.elementary]
        digests += [matrix_digest(e.matrix) for _, e in c.composites]
        reported = [r["lambda_sha256"] for r in report["regions"]]
        reported += [r["lambda_sha256"] for r in report["composites"]]
        if digests != reported:
            return False
        entries = [((e.region,), e) for e in c.elementary]
        entries += list(c.composites)
        folds = {}
        rng = random.Random(f"reconstruct:{self.seed}:{name}")
        for _ in range(RECON_SAMPLES):
            key, entry = entries[rng.randrange(len(entries))]
            if any(not hasattr(part, "locations") for part in key):
                raise ValueError(f"{name}: nested grouping {key} has no oracle here")
            if key not in folds:
                folds[key] = o.fold_to_exterior(table, key)
            vals, exteriors = folds[key]
            gammas = [table.gammas[table.region_axis(r)] for r in key]
            row = rng.randrange(entry.matrix.shape[0])
            col = rng.randrange(len(exteriors))

            def gamma_rows(r):
                # gamma index per region of row r of this entry's row set
                if len(key) == 1:
                    return [r]
                factors = entry.factor_omegas
                pos = decode_product_row(r, [f.size for f in factors])
                return [f.indices[p] for f, p in zip(factors, pos)]

            fid = np.array(
                [vals[tuple(gamma_rows(k)) + (col,)] for k in entry.omega.indices]
            )
            rebuilt = float(entry.matrix[row] @ fid)
            assignment = {
                r: g.labels[i] for r, g, i in zip(key, gammas, gamma_rows(row))
            }
            want = o.joint_prob(s.spec, assignment, exteriors[col])
            if not abs(rebuilt - want) <= RECON_TOL:
                return False
        return True

    def extra_metrics(self, latencies):
        q = np.percentile(latencies, [25, 50, 75])
        return {
            "compress_s": (
                float(q[1]), "s",
                f"median of {len(latencies)} passes; quartiles "
                f"{q[0]:.4f} / {q[2]:.4f} s",
            )
        }


class CompressBundled(_Compress):
    name = "compress_bundled"
    warmup_note = "1 full pass discarded"

    def scenario_docs(self):
        paths = sorted(glob.glob(os.path.join(self.root, "scenarios", "*.json")))
        if not paths:
            raise FileNotFoundError("no bundled scenarios under scenarios/")
        random.Random(f"bundled-order:{self.seed}").shuffle(paths)
        return [(os.path.splitext(os.path.basename(p))[0], p) for p in paths]

    def warmup(self) -> None:
        self._run_set(self.items)

    def gate_ok(self, name: str, report: dict) -> bool:
        if name not in BUNDLED_GATES:
            return True
        regions, composites = BUNDLED_GATES[name]
        got_regions = tuple(r["omega_size"] for r in report["regions"])
        got_comps = [(c["omega_size"], c["product_size"]) for c in report["composites"]]
        return got_regions == regions and got_comps == composites


class CompressChain(_Compress):
    name = "compress_chain"
    warmup_note = "1 pass over the 3-location polariser and 2-location probe chains discarded"
    POLARISER_LOCATIONS = 4
    PROBE_LOCATIONS = 3

    def scenario_docs(self):
        docs = gen.chain_set(self.seed, self.POLARISER_LOCATIONS, self.PROBE_LOCATIONS)
        return [
            (d["name"], write_json(os.path.join(self.workdir, f"{d['name']}.json"), d))
            for d in docs
        ]

    def warmup(self) -> None:
        # the same code paths on the next-smaller chains: a full pass would
        # cost as much as a measured one
        items = []
        for d in gen.chain_set(self.seed, self.POLARISER_LOCATIONS - 1, self.PROBE_LOCATIONS - 1):
            path = write_json(os.path.join(self.workdir, f"warm-{d['name']}.json"), d)
            items.append((d["name"], path, os.path.join(self.workdir, "reports", "warm.json")))
        codes = self._run_set(items)
        if any(codes):
            raise RuntimeError(f"warm-up compress failed with exit codes {codes}")


# ---------------------------------------------------------------------------
# query workload
# ---------------------------------------------------------------------------

# Operations per 100 of the mix. The ratio is a chosen synthetic mix, not
# measured traffic: no caller in the program issues these calls in a loop
# (``causaloid herald`` answers one query per process). The weights are set
# so that every kind gets enough operations per run for its own median:
# the cheap read path (joint and product, tens of microseconds) is 70%, so
# the median operation is a read-path call; well-defined heralds (about
# 0.1 ms) are 20%; witness heralds (about 2 ms) 8%; registry writes (tens
# of milliseconds) 2%, still over a hundred per run. Witness heralds and
# registry writes take most of the busy time, so they set ops_per_s.
QUERY_MIX = (
    ("joint", 35),
    ("product", 35),
    ("herald_well", 20),
    ("herald_ill", 8),
    ("registry", 2),
)
META_RULES = ("tensor-factorization",)
# oracle's own classification of a herald from the direct conditionals
WELL_SPREAD = 1e-12
ILL_SPREAD = 1e-3
HERALD_DRAWS = 2000
WARMUP_PER_KIND = 16


class Query(Workload):
    """A seeded operation mix against one registry, a fresh input per operation.

    Every operation draws its own input, untimed, from a space far larger
    than a run's operation count: joint states and measurement vectors are
    random mixtures (continuous weights), herald queries are drawn from all
    target/condition/label choices, and each registry write is a random
    subset of the registry's composites. A cache keyed on the inputs
    therefore finds few repeats, as it would for a real caller.
    """

    name = "query"
    op_unit = "query"
    warmup_note = f"{WARMUP_PER_KIND} operations of each kind discarded"
    LOCATIONS = 4

    def setup(self) -> None:
        doc = gen.polariser_chain(
            random.Random(f"query:{self.seed}"),
            self.LOCATIONS,
            gen.all_groupings(self.LOCATIONS),
            f"gen-query-polariser-{self.LOCATIONS}",
            self.seed,
            with_herald=False,
        )
        path = write_json(os.path.join(self.workdir, "query.json"), doc)
        # the same work as ``causaloid herald``: spans, table, registry
        s = self.cz.scenario.parse_scenario(path)
        for region in s.regions:
            self.cz.backends.validate_exterior_span(s.spec, region, tol_rank=s.tol_rank)
        table = self.cz.backends.build_prob_table(s.spec, s.regions)
        c = self.cz.causaloid.build_causaloid(
            table, composites=s.composites, tol_rank=s.tol_rank,
            tol_residual=s.tol_residual,
        )
        self.s, self.table, self.c = s, table, c

    def prepare(self) -> None:
        regions = self.c.regions
        self.pairs = [(a, b) for i, a in enumerate(regions) for b in regions[i + 1:]]
        self.registry_path = os.path.join(self.workdir, "registry.json")
        self.rng = random.Random(f"query-draw:{self.seed}")
        self.cycle = [k for k, n in QUERY_MIX for _ in range(n)]
        random.Random(f"query-mix:{self.seed}").shuffle(self.cycle)

    # -- drawing inputs (untimed) ----------------------------------------

    def _labels(self):
        table = self.table
        return [
            table.gammas[table.region_axis(r)].labels[
                self.rng.randrange(table.gammas[table.region_axis(r)].size)
            ]
            for r in self.c.regions
        ]

    def _mixture(self):
        """Two distinct table exteriors and a random weight on the first."""
        a, b = self.rng.sample(range(len(self.table.exteriors)), 2)
        w = self.rng.random()
        return ((a, w), (b, 1.0 - w))

    def _state(self, entry, key, labels, mixture):
        """Fiducial probabilities of ``entry`` at a mixture of table exteriors.

        Regions outside ``key`` keep the labels given, i.e. they are folded
        into the exterior as conditioning.
        """
        table = self.table
        fixed = {r: table.gammas[table.region_axis(r)].index_of(l)
                 for r, l in zip(self.c.regions, labels)}
        comps = []
        for flat in entry.omega.indices:
            pos = decode_product_row(flat, [f.size for f in entry.factor_omegas])
            rows = dict(fixed)
            for r, f, p in zip(key, entry.factor_omegas, pos):
                rows[r] = f.indices[p]
            idx = tuple(rows[r] for r in table.regions)
            comps.append(sum(w * float(table.values[idx + (col,)]) for col, w in mixture))
        return self.o.state_vector_cls(context=entry.omega, components=np.array(comps))

    def _r_mixture(self, region):
        """A random mixture of two labels' measurement vectors on ``region``."""
        gamma = self.table.gammas[self.table.region_axis(region)]
        lam = self.c.tomographic(region)
        l1, l2 = (gamma.labels[self.rng.randrange(gamma.size)] for _ in range(2))
        w = self.rng.random()
        r1, r2 = self.o.r_vector(l1, lam), self.o.r_vector(l2, lam)
        r = self.o.r_vector_cls(
            context=r1.context, components=w * r1.components + (1.0 - w) * r2.components
        )
        return r, ((l1, w), (l2, 1.0 - w))

    def _herald(self, kind: str):
        """Draw queries until one of ``kind``, classified by the table alone.

        A query is kept only when its conditioning event has non-zero
        probability at some exterior. Its class comes from the direct
        conditionals: constant across exteriors (well defined) or spread by
        more than 1e-3 (ill defined); anything between is skipped.
        """
        o, table = self.o, self.table
        regions = list(self.c.regions)
        for _ in range(HERALD_DRAWS):
            target = regions[self.rng.randrange(len(regions))]
            others = [r for r in regions if r != target]
            given = self.rng.sample(others, self.rng.randint(1, len(others)))
            lab = dict(zip(regions, self._labels()))
            query = o.herald_query(
                (target, lab[target]),
                [(r, lab[r]) for r in sorted(given, key=lambda r: r.locations)],
            )
            sweep = [(j, p) for j, (_, p) in enumerate(o.conditional_sweep(table, query))
                     if p is not None]
            if not sweep:
                continue
            values = [p for _, p in sweep]
            spread = max(values) - min(values)
            if kind == "herald_well" and spread <= WELL_SPREAD:
                return query, sweep[0][0]
            if kind == "herald_ill" and spread > ILL_SPREAD:
                return query, spread
        raise RuntimeError(f"no {kind} query in {HERALD_DRAWS} draws from the generated chain")

    def _registry(self):
        """The registry with a random non-empty subset of its composites."""
        composites = self.c.composites
        keep = []
        while not keep:
            keep = [pair for pair in composites if self.rng.random() < 0.5]
        return self.o.causaloid_cls(
            regions=self.c.regions, elementary=self.c.elementary, composites=tuple(keep)
        )

    def kind(self, i: int) -> str:
        return self.cycle[i % len(self.cycle)]

    def draw(self, i: int):
        return self._draw(self.kind(i))

    def _draw(self, kind: str):
        if kind == "joint":
            labels, mixture = self._labels(), self._mixture()
            full = tuple(self.c.regions)
            return labels, self._state(self.c.entry(full), full, labels, mixture), mixture
        if kind == "product":
            a, b = self.pairs[self.rng.randrange(len(self.pairs))]
            labels, mixture = self._labels(), self._mixture()
            r1, mix1 = self._r_mixture(a)
            r2, mix2 = self._r_mixture(b)
            state = self._state(self.c.entry((a, b)), (a, b), labels, mixture)
            return r1, r2, state, (a, b, labels, mix1, mix2, mixture)
        if kind == "registry":
            return self._registry()
        return self._herald(kind)

    # -- operations ------------------------------------------------------

    def op(self, i: int, case):
        return self._call(self.kind(i), case)

    def _call(self, kind: str, case):
        cz, c = self.cz, self.c
        if kind == "joint":
            labels, state, _ = case
            return kind, case, cz.causaloid.evaluate_joint(c, labels, state)
        if kind == "product":
            r1, r2, _, _ = case
            return kind, case, cz.causaloid.causaloid_product(r1, r2, c)
        if kind == "registry":
            meta = cz.causaloid.meta_compress(case, META_RULES)
            cz.causaloid.save_causaloid(meta, self.registry_path)
            loaded = cz.causaloid.load_causaloid(self.registry_path)
            return kind, case, (loaded, cz.causaloid.expand(loaded))
        query = case[0]
        return kind, case, cz.heralding.herald(c, query, tol=self.s.tol_herald, table=self.table)

    def warmup(self) -> None:
        for kind, _ in QUERY_MIX:
            for _ in range(WARMUP_PER_KIND if kind != "registry" else 2):
                self._call(kind, self._draw(kind))

    # -- oracle ------------------------------------------------------------

    def _joint_want(self, labels, mixture):
        assignment = dict(zip(self.c.regions, labels))
        exteriors = self.table.exteriors
        return sum(w * self.o.joint_prob(self.s.spec, assignment, exteriors[col])
                   for col, w in mixture)

    def check(self, i: int, out) -> bool:
        kind, case, got = out
        if kind == "joint":
            labels, _, mixture = case
            return abs(got - self._joint_want(labels, mixture)) <= RECON_TOL
        if kind == "product":
            _, _, state, (a, b, labels, mix1, mix2, mixture) = case
            lab = dict(zip(self.c.regions, labels))
            want = 0.0
            for l1, w1 in mix1:
                for l2, w2 in mix2:
                    lab[a], lab[b] = l1, l2
                    want += w1 * w2 * self._joint_want([lab[r] for r in self.c.regions], mixture)
            return (got.context == state.context
                    and abs(float(got.components @ state.components) - want) <= RECON_TOL)
        if kind == "herald_well":
            query, col = case
            want = self.o.conditional_from_table(self.table, query, col)
            return got.well_defined and abs(got.p - want) <= RECON_TOL
        if kind == "herald_ill":
            if got.well_defined or got.witness is None:
                return False
            (_, hi), (_, lo) = got.witness
            return hi - lo > self.s.tol_herald and abs((hi - lo) - case[1]) <= RECON_TOL
        loaded, expanded = got
        meta = self.o.meta_compress(case, META_RULES)
        return (
            self.o.to_dict(loaded) == self.o.to_dict(meta)
            and self.o.to_dict(expanded) == self.o.to_dict(self.o.expand(meta))
        )

    def extra_metrics(self, latencies):
        us = np.asarray(latencies) * 1e6
        n = len(us)
        return {
            "query_p50_us": (float(np.percentile(us, 50)), "us", f"n={n}"),
            "query_p99_us": (float(np.percentile(us, 99)), "us", f"n={n}"),
            "queries_per_s": (n / float(np.sum(latencies)), "ops/s", "one caller"),
        }


# ---------------------------------------------------------------------------
# sampling workload
# ---------------------------------------------------------------------------

class Sample(Workload):
    name = "sample"
    op_unit = "batch"
    warmup_note = "1 batch of 200 runs discarded"
    LOCATIONS = 3
    BATCH_RUNS = 1000

    def setup(self) -> None:
        rng = random.Random(f"sample:{self.seed}")
        doc = gen.polariser_chain(
            rng, self.LOCATIONS, gen.neighbour_pairs(self.LOCATIONS),
            f"gen-sample-polariser-{self.LOCATIONS}", self.seed, with_herald=False,
        )
        path = write_json(os.path.join(self.workdir, "sample.json"), doc)
        self.s = self.cz.scenario.parse_scenario(path)
        self.actions = {x: rng.randrange(gen.ANGLES_PER_LOCATION)
                        for x in range(1, self.LOCATIONS + 1)}
        self.procedure = self.cz.operational.ProcedureSpec(self.actions)
        self.stack_path = os.path.join(self.workdir, "stacks.txt")

    def prepare(self) -> None:
        """Exact P(pass at the last location | likelier outcome at the first).

        The sampler prepares each chain's first preparation and marginalizes
        the terminal effect, so the oracle evaluates ``joint_prob`` with the
        complete (discard) effect at exterior (prep 0, effect 0).
        """
        o, s = self.o, self.s
        spec = dataclasses.replace(
            s.spec,
            effects=tuple((o.complete_effect(s.spec.kind, ch.size),) for ch in s.spec.chains),
        )
        ext = o.exterior_cls((0,), (0,), (), True)
        regions = s.regions
        a = [self.actions[r.locations[0]] for r in regions]

        def joint(s1, s2, s3):
            labels = [((a[0],), (s1,)), ((a[1],), (s2,)), ((a[2],), (s3,))]
            return o.joint_prob(spec, dict(zip(regions, labels)), ext)

        first = [sum(joint(s1, s2, s3) for s2 in (0, 1) for s3 in (0, 1)) for s1 in (0, 1)]
        cond = int(np.argmax(first))
        self.p_exact = sum(joint(cond, s2, 0) for s2 in (0, 1)) / first[cond]
        last = regions[-1].locations[0]
        self.target = o.card_cls(last, self.actions[last], 0)
        self.condition = o.card_cls(1, self.actions[1], cond)

    def _batch(self, seed: int, runs: int):
        op = self.cz.operational
        stacks = op.sample_stacks(self.s.spec, self.procedure, runs, seed)
        op.dump_stacks(stacks, self.stack_path)
        loaded = op.load_stacks(self.stack_path)
        est = op.estimate_prob(loaded, [self.target], [self.condition])
        return stacks, loaded, est

    def batch_seed(self, i: int) -> int:
        return self.seed * 1_000_000 + i

    def warmup(self) -> None:
        self._batch(self.batch_seed(999_999), 200)

    def op(self, i: int, case):
        return self._batch(self.batch_seed(i), self.BATCH_RUNS)

    def check(self, i: int, out) -> bool:
        stacks, loaded, est = out
        same = [(x.tag.assignment, x.sorted_cards()) for x in stacks] == [
            (x.tag.assignment, x.sorted_cards()) for x in loaded
        ]
        p = self.p_exact
        sigma = math.sqrt(max(p * (1 - p), 0.0) / est.denominator_count)
        return same and abs(est.probability - p) <= SAMPLE_SIGMAS * sigma + 1e-12

    def extra_metrics(self, latencies):
        runs = self.BATCH_RUNS * len(latencies)
        return {
            "sample_runs_per_s": (
                runs / float(np.sum(latencies)), "runs/s",
                f"{len(latencies)} batches of {self.BATCH_RUNS} runs",
            )
        }


WORKLOADS = {w.name: w for w in (CompressBundled, CompressChain, Query, Sample)}
