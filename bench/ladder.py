#!/usr/bin/env python3
"""One-off scaling ladder behind the baseline figures in bench/BASELINE.md.

Run from the repository root (about two minutes on a 2-core machine):

    python3 bench/ladder.py

It times, once each and outside the benchmark workloads:

* ``run_pipeline`` on the bundled ``polariser_chain`` (best of 3), with
  span validation and the main table build from a traced fourth run;
* ``run_pipeline`` on a generated polariser chain with angles 0/30/60/90
  at every location and neighbour pairs as composites, n = 3, 4, 5;
* ``sample_stacks`` for 1e5 runs of the single 30-degree polariser of
  acceptance criterion 8.

Results print as a table and land in ``bench/out/ladder.json``.
"""
from __future__ import annotations

import json
import os
import sys
import time

import run
import tracer as tracing


def chain_doc(n: int) -> dict:
    return {
        "format_version": 1,
        "name": f"ladder-polariser-{n}",
        "seed": 0,
        "theory": {
            "kind": "quantum",
            "chains": [{"name": "photon", "size": 2, "locations": list(range(1, n + 1))}],
            "instruments": [
                {"location": i, "family": "polariser", "angles_deg": [0, 30, 60, 90]}
                for i in range(1, n + 1)
            ],
        },
        "regions": {f"R{i}": [i] for i in range(1, n + 1)},
        "composites": [[f"R{i}", f"R{i + 1}"] for i in range(1, n)],
        "heralds": [],
        "tolerances": {"rank": 1e-9, "residual": 1e-8, "herald": 1e-8},
    }


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def main() -> int:
    cz, _ = run.import_program()
    rows = {"machine": run.machine_info()}

    bundled = cz.scenario.parse_scenario(os.path.join(run.ROOT, "scenarios", "polariser_chain.json"))
    timed(cz.report.run_pipeline, bundled)  # warm-up
    rows["polariser_chain_pipeline_s"] = min(
        timed(cz.report.run_pipeline, bundled) for _ in range(3)
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request_span("pipeline"):
            cz.report.run_pipeline(bundled)
    finally:
        tracer.uninstall()
    totals = tracing.summarize(tracer, {0})["totals"]
    rows["polariser_chain_traced"] = {
        k: totals.get(k, 0.0)
        for k in ("report.pipeline_s", "backends.span_validate_s",
                  "backends.table_build_s", "backends.table_builds")
    }
    # the main table is the one build outside span validation
    main_table = [
        s.end - s.start for s in tracer.spans
        if s.name == "backends.build_prob_table"
        and tracer.spans[s.parent].name == "report.run_pipeline"
    ]
    rows["polariser_chain_traced"]["main_table_build_s"] = sum(main_table)

    for n in (3, 4, 5):
        s = cz.scenario.parse_scenario_dict(chain_doc(n))
        rows[f"generated_chain_n{n}_pipeline_s"] = timed(cz.report.run_pipeline, s)
        print(f"n={n}: {rows[f'generated_chain_n{n}_pipeline_s']:.3f} s", file=sys.stderr)

    b = cz.backends
    spec = b.QuantumSpec(
        chains=(b.Chain("photon", 2, (1,)),),
        instruments=(b.polariser_family(1, (0.0, 30.0, 60.0, 90.0)),),
        preparations=(b.ic_preparations("quantum", 2),),
        effects=(b.ic_effects("quantum", 2),),
        conditioning_actions=(),
    )
    procedure = cz.operational.ProcedureSpec({1: 1})
    rows["sample_1e5_runs_s"] = timed(
        cz.operational.sample_stacks, spec, procedure, 100000, 2026
    )

    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "ladder.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
