"""Seeded CLI jobs for the three workloads, and the correctness gate.

A job is one sampled geometry's ``ringspace`` subcommands, run one after
another: five for ``divisor-ladder``, three for ``probes``.  Geometry covers the README's working range: inner radius
``r in [0.3, 0.7]``; interior points at uniform radius in the middle 70% of
the gap ``(r, 1)`` and uniform angle.

Jobs come in rounds of ``ROUND``.  Within a round, the coordinates that
decide a job's cost and outcome (``r``, the point radii, the angle between
base point and zero, the atom masses) form an orthogonal-array Latin
hypercube drawn from the seed: each coordinate takes exactly one value in
each of ``ROUND`` equal strata, and the first four coordinates are also
balanced in pairs on a 3 x 3 grid.  Across rounds, the offset inside each
stratum follows a low-discrepancy sequence.  A run is a whole number of
rounds, so every run covers the range evenly and the share of failing
geometries varies far less from seed to seed than with independent draws.
The remaining coordinates are independent draws from the same seeded
generator.  No geometry in the range is excluded: failures are part of
what the benchmark measures.
"""

from __future__ import annotations

import cmath
import json
import math
import random

R_RANGE = (0.3, 0.7)
GRID = 96  # biharmonic grid, n_rho = n_theta
LADDER = [8, 16, 24, 32]
# Orthogonal array OA(9, 4, 3, 2): any two columns hold every level pair once.
_L9 = ((0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2), (1, 0, 1, 2), (1, 1, 2, 0),
       (1, 2, 0, 1), (2, 0, 2, 1), (2, 1, 0, 2), (2, 2, 1, 0))
ROUND = len(_L9)
DIMS = 6
# Nominal wall time of one round on the 2-vCPU VM the benchmark was built on.
# ``--seconds`` buys whole rounds at this rate, so every run of a workload
# does the same work: stopping on the clock instead would end runs early
# after rounds heavy in slow successes and bias ``success_rate``.
ROUND_SECONDS = {"divisor-ladder": 18.0, "probes": 7.5}


def _radical_inverse(k: int, base: int = 2) -> float:
    out, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        out += digit * scale
        scale /= base
    return out


def _design(rng: random.Random, k: int, shifts, turns) -> list[list[float]]:
    """Round ``k``: ``ROUND`` points in ``[0, 1)^DIMS``, one per stratum in every
    coordinate.

    Coordinates 0-3 follow ``_L9`` (levels relabelled at random); each level
    splits into three fine strata.  For coordinates 0 and 1 the fine stratum
    cycles with the round and the other coordinate's level, so every three
    rounds pair each fine stratum of one with each level of the other.  The
    offset inside a stratum follows a shifted van der Corput sequence over
    the rounds, so a run's rounds also fill each stratum evenly.
    """
    levels = []
    for c in range(len(_L9[0])):
        relabel = rng.sample(range(3), 3)
        levels.append([relabel[row[c]] for row in _L9])
    offset = _radical_inverse(k + 1)
    columns = []
    for c in range(DIMS):
        if c < 2:
            strata = [3 * levels[c][i] + (levels[1 - c][i] + k + turns[c][levels[c][i]]) % 3
                      for i in range(ROUND)]
        elif c < len(levels):
            strata = [0] * ROUND
            for level in range(3):
                rows = [i for i in range(ROUND) if levels[c][i] == level]
                for i, sub in zip(rows, rng.sample(range(3), 3)):
                    strata[i] = 3 * level + sub
        else:
            strata = rng.sample(range(ROUND), ROUND)
        columns.append([(s + (offset + shifts[c][s]) % 1.0) / ROUND for s in strata])
    return [list(point) for point in zip(*columns)]


def _cnum(z: complex) -> str:
    """Complex literal in the CLI's ``a+bi`` syntax, full precision."""
    sign = "+" if math.copysign(1.0, z.imag) > 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _interior(r: float, u: float, angle: float) -> complex:
    gap = 1.0 - r
    return cmath.rect(r + (0.15 + 0.7 * u) * gap, angle)


def _divisor_ladder(q: list[float], rng: random.Random) -> list[list[str]]:
    """The ladder, then the boundary-tag subcommands on the same geometry."""
    r = R_RANGE[0] + (R_RANGE[1] - R_RANGE[0]) * q[0]
    turn = rng.uniform(0.0, 2.0 * math.pi)
    base = _interior(r, q[1], turn)
    z1 = _interior(r, q[2], turn + 2.0 * math.pi * q[3])
    zeros = [z1] + [_interior(r, rng.random(), rng.uniform(0.0, 2.0 * math.pi))
                    for _ in range(2)]
    atoms = [(cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi)), -(0.1 + 0.9 * q[4])),
             (cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi)), -(0.1 + 0.9 * q[5]))]
    geo = ["--r", repr(r), "--base", _cnum(base)]
    return [
        ["qc-estimate", *geo, "--zeros", _cnum(z1)],
        ["qc-divisor", *geo, "--zeros", ",".join(_cnum(z) for z in zeros),
         "--atoms", ",".join(f"{_cnum(p)}:{mass!r}" for p, mass in atoms)],
        ["schottky-fit", *geo, "--zeros", _cnum(z1), "--N", "96"],
        ["kernel-zeros", *geo, "--space", "hardy"],
        ["extremal", *geo, "--zeros", _cnum(z1), "--space", "hardy", "--N", "48"],
    ]


def _probes(q: list[float], rng: random.Random) -> list[list[str]]:
    r = R_RANGE[0] + (R_RANGE[1] - R_RANGE[0]) * q[0]
    base = _interior(r, q[1], rng.uniform(0.0, 2.0 * math.pi))
    disk_pole = cmath.rect(0.15 + 0.7 * q[2], rng.uniform(0.0, 2.0 * math.pi))
    ring_pole = _interior(r, q[3], rng.uniform(0.0, 2.0 * math.pi))
    grid = ["--n-rho", str(GRID), "--n-theta", str(GRID)]
    return [
        ["biharmonic", "--r", repr(r), "--disk", "--pole", _cnum(disk_pole), *grid],
        ["biharmonic", "--r", repr(r), "--pole", _cnum(ring_pole), *grid],
        ["decomposition", "--r", repr(r), "--base", _cnum(base)],
    ]


WORKLOADS = {
    "divisor-ladder": _divisor_ladder,
    "probes": _probes,
}

# The cold-start job of setup_s.
SETUP_JOB = ["hmeasure", "--r", "0.5"]


def job_list(workload: str, seed: int, seconds: float) -> list[list[list[str]]]:
    """The jobs of a run, in whole rounds; a job is a list of argument vectors."""
    make = WORKLOADS[workload]
    rng = random.Random(seed)
    shifts = [[rng.random() for _ in range(ROUND)] for _ in range(DIMS)]
    turns = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
    count = max(1, math.ceil(seconds / ROUND_SECONDS[workload]))
    return [make(q, rng) for k in range(count) for q in _design(rng, k, shifts, turns)]


# ------------------------------------------------------------------ the gate

def _ladder(d):
    return d["ladder"]


# Per-subcommand invariants: (name, predicate(results, tolerances, document)).
# Each tolerance is the one the document itself states under "tolerances".
INVARIANTS = {
    "hmeasure": [
        ("partition", lambda r, t, d: r["partition_residual"] <= t["partition"]),
    ],
    "qc-estimate": [
        ("ladder_windows", lambda r, t, d: [s["N"] for s in _ladder(d)] == LADDER),
        ("ladder_nondecreasing", lambda r, t, d: all(
            a["estimate"] <= b["estimate"] for a, b in zip(_ladder(d), _ladder(d)[1:]))),
        ("constant_is_top_rung",
         lambda r, t, d: r["constant_estimate"] == _ladder(d)[-1]["estimate"]),
    ],
    "qc-divisor": [
        # 1 <= |G| <= C holds away from singular atoms; the document's moduli
        # are sampled on every boundary node, atoms included, so the pair is
        # checked only for atom-free divisors.
        ("boundary_lower", lambda r, t, d: "atoms" in d["parameters"]
         or r["boundary_modulus_min"] >= 1.0 - t["boundary"]),
        ("boundary_upper", lambda r, t, d: "atoms" in d["parameters"]
         or r["boundary_modulus_max"] <= r["C"] + t["boundary"]),
        ("ratio_upper", lambda r, t, d: r["division_ratio_max"] <= r["C"] + t["ratio"]),
        ("ratio_lower", lambda r, t, d: r["division_ratio_min"] >= 1.0 / r["C"] - t["ratio"]),
    ],
    "schottky-fit": [
        ("fit", lambda r, t, d: r["fit_residual"] <= t["fit"]),
        ("reproducing", lambda r, t, d: r["reproducing_residual"] <= t["reproducing"]),
    ],
    "kernel-zeros": [
        ("newton", lambda r, t, d: r["residual"] <= t["newton"]),
        ("count_located", lambda r, t, d: r["count"] == len(r["locations"])),
    ],
    "extremal": [
        ("equivalence", lambda r, t, d: r["formulation_equivalence"] <= t["equivalence"]),
    ],
    "biharmonic": [
        # Boggio: the clamped plate Green's function of the disk is positive,
        # so no cell may fall below the stated floor there.
        ("disk_positive", lambda r, t, d: not r["disk"] or r["sign_change_cell_count"] == 0),
        ("max_positive", lambda r, t, d: r["max_value"] > 0.0),
    ],
    "decomposition": [
        ("residual", lambda r, t, d: r["residual"] <= t["residual"]),
    ],
}


def _all_finite(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return False


def classify(command: str, code, raw: str | None, text: str | None, validator) -> str:
    """``"ok"`` or the failure class of one subcommand run.

    Classes: ``exit3``/``exit4`` (and any other code as ``exit<n>``),
    ``raw:<ExceptionType>`` for an exception that escaped the CLI, and
    ``invariant:<name>`` for an exit-0 document that fails the schema, a
    stated tolerance, or a structural check.
    """
    if raw is not None:
        return f"raw:{raw}"
    if code != 0:
        return f"exit{code}"
    if text is None:
        return "invariant:document_missing"
    try:
        doc = json.loads(text)
    except ValueError:
        return "invariant:json"
    if not validator.is_valid(doc):
        return "invariant:schema"
    if doc["status"] != "ok" or doc["command"] != command:
        return "invariant:status"
    if not _all_finite(doc["results"]) or not _all_finite(doc.get("ladder", [])):
        return "invariant:finite"
    for name, holds in INVARIANTS[command]:
        try:
            ok = holds(doc["results"], doc["tolerances"], doc)
        except (KeyError, IndexError, TypeError):
            ok = False
        if not ok:
            return f"invariant:{name}"
    return "ok"


def primary_results(text: str | None):
    """What must reproduce byte for byte when a job is re-run."""
    if text is None:
        return None
    doc = json.loads(text)
    return {k: doc.get(k) for k in ("command", "parameters", "results", "ladder", "status")}
