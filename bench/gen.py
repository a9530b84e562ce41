"""Seeded scenario documents for the benchmark workloads.

Every generator returns a plain scenario dict in the versioned format that
``causaloid.scenario.parse_scenario_dict`` reads. The same seed gives the
same document; nothing here imports the program.
"""
from __future__ import annotations

import itertools
import random

TOLERANCES = {"rank": 1e-9, "residual": 1e-8, "herald": 1e-8}
ANGLE_STEP_DEG = 15
ANGLES_PER_LOCATION = 4


def seeded_angles(rng: random.Random, n_locations: int) -> list[list[int]]:
    """Distinct multiples of 15 degrees in [0, 180), sorted, per location.

    No two angles at a location are 90 degrees apart. Two such pairs would
    leave the location only two measurement bases, and its region a
    fiducial set of 4 instead of 5, so the work per operation would change
    with the seed.
    """
    grid = list(range(0, 180, ANGLE_STEP_DEG))
    out = []
    for _ in range(n_locations):
        angles = rng.sample(grid, ANGLES_PER_LOCATION)
        while any(not _not_crossed(a, b) for a, b in itertools.combinations(angles, 2)):
            angles = rng.sample(grid, ANGLES_PER_LOCATION)
        out.append(sorted(angles))
    return out


def _not_crossed(a: int, b: int) -> bool:
    # crossed polarisers (90 degrees apart) block every photon, which would
    # leave a herald's conditioning event with zero probability
    return (a - b) % 180 != 90


def pass_label(action: int) -> int:
    """Herald label index of "pass" under one polariser action.

    Label indices count through (action, outcome) pairs with the action
    varying slowest; outcome 0 is pass.
    """
    return 2 * action


def polariser_chain(
    rng: random.Random,
    n_locations: int,
    composites: list[list[str]],
    name: str,
    seed: int,
    with_herald: bool = True,
) -> dict:
    """A qubit polariser chain with seeded angles at every location.

    With ``with_herald``, one "middle pass given both neighbours pass" herald
    is added on R1..R3, with actions drawn so that no two neighbours are
    crossed and the conditioning event has non-zero probability.
    """
    angles = seeded_angles(rng, n_locations)
    doc = {
        "format_version": 1,
        "name": name,
        "seed": seed,
        "theory": {
            "kind": "quantum",
            "chains": [
                {"name": "photon", "size": 2, "locations": list(range(1, n_locations + 1))}
            ],
            "instruments": [
                {"location": i + 1, "family": "polariser", "angles_deg": angles[i]}
                for i in range(n_locations)
            ],
        },
        "regions": {f"R{i + 1}": [i + 1] for i in range(n_locations)},
        "composites": composites,
        "heralds": [],
        "tolerances": dict(TOLERANCES),
    }
    if with_herald:
        a1, a2, a3 = herald_actions(rng, angles[:3])
        doc["heralds"].append(
            {
                "name": "middle-pass-given-neighbours-pass",
                "target": ["R2", pass_label(a2)],
                "given": [["R1", pass_label(a1)], ["R3", pass_label(a3)]],
            }
        )
    return doc


def herald_actions(rng: random.Random, angles: list[list[int]]) -> tuple[int, int, int]:
    """Seeded actions at three neighbouring polarisers, none of them crossed."""
    choices = [
        combo
        for combo in itertools.product(*(range(len(a)) for a in angles))
        if _not_crossed(angles[0][combo[0]], angles[1][combo[1]])
        and _not_crossed(angles[1][combo[1]], angles[2][combo[2]])
    ]
    return rng.choice(choices)


def neighbour_pairs(n_locations: int) -> list[list[str]]:
    return [[f"R{i}", f"R{i + 1}"] for i in range(1, n_locations)]


def all_groupings(n_locations: int) -> list[list[str]]:
    """Every pair, every triple, ... up to the full flat grouping."""
    names = [f"R{i}" for i in range(1, n_locations + 1)]
    out = []
    for size in range(2, n_locations + 1):
        out.extend(list(c) for c in itertools.combinations(names, size))
    return out


def probe_chain(n_locations: int, name: str, seed: int) -> dict:
    """A qubit chain with a measure-and-reprepare probe at every location."""
    return {
        "format_version": 1,
        "name": name,
        "seed": seed,
        "theory": {
            "kind": "quantum",
            "chains": [
                {"name": "qubit", "size": 2, "locations": list(range(1, n_locations + 1))}
            ],
            "instruments": [
                {"location": i + 1, "family": "probe_reprepare"}
                for i in range(n_locations)
            ],
        },
        "regions": {f"R{i + 1}": [i + 1] for i in range(n_locations)},
        "composites": neighbour_pairs(n_locations),
        "heralds": [],
        "tolerances": dict(TOLERANCES),
    }


def chain_set(seed: int, polariser_locations: int, probe_locations: int) -> list[dict]:
    """The scaling-chain scenario set: polariser chain plus probe chain."""
    rng = random.Random(seed)
    composites = neighbour_pairs(polariser_locations)
    if polariser_locations >= 3:
        composites.append(["R1", "R2", "R3"])
    return [
        polariser_chain(
            rng,
            polariser_locations,
            composites,
            f"gen-polariser-{polariser_locations}",
            seed,
        ),
        probe_chain(probe_locations, f"gen-probe-{probe_locations}", seed),
    ]
