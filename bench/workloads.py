"""The three benchmark workloads: job lists and benchmark-side cross-checks.

A workload instance is built from one seed.  The seed is passed as
``--seed`` to every job and also drives the Reeb perturbations and the
weights, so the program sees only generated JSON files and flags.  Each
subcommand draws its inputs from a slot of its own (see inputs.py), and the
warm-up instance of a seed from further slots, so no two jobs of an
instance, and no warm-up job, read the same cone or weight vector: a cache
keyed on a job's inputs is never hit by another job.

Family tops are lowered from the sizes first proposed (volume-toric cube
cone 5, msy-check and polytope-volume cube cone 6, spheres d = 24,
check-w1 m = 7) so that a run of ``run_seconds`` holds enough seeded
instances for steady medians; README.md lists them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

import inputs


# Products Delta^a x Delta^b.  volume-toric stops at (2, 2) so that cube
# cone 4 stays the largest toric-cones job.
PRODUCTS = ((1, 1), (2, 2), (2, 3), (3, 3))
TORIC_PRODUCTS = ((1, 1), (2, 2))
SPHERE_DIMS = (8, 12)
# The subcommands of each workload that draw inputs, in the order of their
# input slots.
ROUTES = {
    "toric-cones": ("volume-toric", "msy-check"),
    "sections": ("polytope-volume", "lawrence"),
    "orbit-sums": ("localize", "check-v-independence", "localize-j", "dh", "volume-sphere",
                   "secondary", "stiefel", "homogeneous"),
}
WORKLOADS = tuple(ROUTES)


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    small: bool = False
    # (key path into the --json output, the value the benchmark computed)
    want: tuple = ()


@dataclass
class Instance:
    """One seeded job list.  Every job reads inputs of its own, so no two
    jobs share a cone or a weight vector."""

    workload: str
    seed: int  # the seed of the inputs
    job_seed: int  # the --seed of every job
    jobs: list = field(default_factory=list)
    frontier: str = ""
    cold: str = ""  # smallest job, also launched in a fresh interpreter

    def add(self, job_id: str, *argv, small: bool = False, want=()):
        self.jobs.append(Job(
            job_id, tuple(str(a) for a in argv) + ("--json", "--seed", str(self.job_seed)), small, tuple(want)
        ))


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def derived_seed(seed: int, tag) -> int:
    """A seed hashed from (seed, tag)."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{tag}".encode()).digest()[:6], "big")


def _cone(inst: Instance, workdir: str, route: str, slot: int, name: str) -> tuple:
    """Write the cone ``name`` (cube-k or delta-axb) with the Reeb vector of
    ``slot``.  Returns (path, vertex count, section dimension, section
    volume), the last three computed by the generators."""
    kind, _, size = name.partition("-")
    if kind == "cube":
        k = int(size)
        doc, count = inputs.cube_cone(k, inst.seed, slot)
        n, volume = k, inputs.cube_section_volume(doc["reeb"])
    else:
        a, b = (int(x) for x in size.split("x"))
        doc, count = inputs.simplex_product_cone(a, b, inst.seed, slot)
        n, volume = a + b, inputs.simplex_product_section_volume(a, b, doc["reeb"])
    return _write(workdir, f"{route}-{name}", doc), count, n, volume


def _cone_names(top_cube: int, products) -> list:
    return [f"cube-{k}" for k in range(2, top_cube + 1)] + [f"delta-{a}x{b}" for a, b in products]


def _is_small(name: str) -> bool:
    return name in ("cube-2", "cube-3", "delta-1x1")


def build(workload: str, seed: int, workdir: str, warm_up: bool = False) -> Instance:
    """Write the inputs of one instance into ``workdir`` and list its jobs.

    ``warm_up`` builds the warm-up instance of ``seed`` instead: its inputs
    come from slots that the timed instance does not use, and its jobs get
    a --seed of their own."""
    if workload not in ROUTES:
        raise ValueError(f"unknown workload {workload!r}")
    routes = ROUTES[workload]
    inst = Instance(workload, seed, derived_seed(seed, "warm-up") if warm_up else seed)

    def slot(route: str) -> int:
        return routes.index(route) + (len(routes) if warm_up else 0)

    if workload == "toric-cones":
        for route, names in (("volume-toric", _cone_names(4, TORIC_PRODUCTS)),
                             ("msy-check", _cone_names(4, PRODUCTS))):
            for name in names:
                path, _, n, volume = _cone(inst, workdir, route, slot(route), name)
                want = [(("exact",), exact(2 * volume, n + 1))]
                if route == "msy-check":
                    want.append((("section_volume",), _frac(volume)))
                inst.add(f"{route}:{name}", route, "--input", path, small=_is_small(name), want=want)
        inst.frontier = "volume-toric:cube-4"
        inst.cold = "msy-check:cube-2"
    elif workload == "sections":
        for route, names in (("polytope-volume", _cone_names(5, PRODUCTS)),
                             ("lawrence", _cone_names(4, PRODUCTS))):
            for name in names:
                path, count, _, volume = _cone(inst, workdir, route, slot(route), name)
                want = [(("exact",), exact(volume, 0))]
                if route == "polytope-volume":
                    want.append((("vertex_count",), count))
                inst.add(f"{route}:{name}", route, "--input", path, small=_is_small(name), want=want)
        inst.frontier = "polytope-volume:cube-5"
        inst.cold = "polytope-volume:cube-2"
    elif workload == "orbit-sums":
        for d in SPHERE_DIMS:
            small = d == 8

            def sphere(route):
                w = inputs.sphere_weights(d, seed, slot(route))
                return w, _write(workdir, f"{route}-sphere-{d}", inputs.sphere_system(w))

            for route in ("localize", "check-v-independence"):
                w, path = sphere(route)
                inst.add(f"{route}:sphere-{d}", route, "--input", path, small=small,
                         want=[(("exact",), sphere_volume(w))])
            w, path = sphere("localize-j")
            total = sum(w)
            inst.add(f"localize-j:sphere-{d}", "localize", "--input", path,
                     "--j", f"1,{d - 2}", "--leaf-integrals", ",".join(_frac(total / x) for x in w),
                     small=small, want=[(("exact",), exact(secondary_closed_form(w, (1, d - 2)), 0))])
            w, path = sphere("dh")
            inst.add(f"dh:sphere-{d}", "dh", "--input", path, "--order", 2 * (d - 1), small=small,
                     want=[(("coefficients", d - 1), sphere_volume(w))])
            w = inputs.sphere_weights(d, seed, slot("volume-sphere"))
            inst.add(f"volume-sphere:sphere-{d}", "volume-sphere", "--weights", ",".join(_frac(x) for x in w),
                     small=small, want=[(("exact",), sphere_volume(w))])
        w = inputs.sphere_weights(8, seed, slot("secondary"))
        inst.add("secondary:sphere-8", "secondary", "--weights", ",".join(_frac(x) for x in w),
                 "--j", "1,6", small=True, want=[(("exact",), exact(secondary_closed_form(w, (1, 6)), 0))])
        for m in range(3, 6):
            inst.add(f"check-w1:m-{m}", "check-w1", "--m", m, want=[(("exact",), "1 * pi^0")])
        for route, flag in (("stiefel", "--w"), ("homogeneous", "--b-prime")):
            w = inputs.stiefel_weights(seed, slot(route))
            inst.add(route, route, flag, ",".join(_frac(x) for x in w), small=True,
                     want=[(("exact",), stiefel_volume(w))])
        inst.frontier = "check-w1:m-5"
        inst.cold = "stiefel"
    return inst


# ---------------------------------------------------------------------------
# benchmark-side oracles


def elementary(k: int, xs) -> Fraction:
    """e_k as the literal sum over k-subsets (brute force on purpose)."""
    return sum((prod(c, start=Fraction(1)) for c in itertools.combinations(xs, k)), Fraction(0))


def secondary_closed_form(w, J) -> Fraction:
    """s_1 s_J / s_{m+1} at the weights, with brute-force e_k."""
    s_J = prod((elementary(j, w) for j in J), start=Fraction(1))
    return elementary(1, w) * s_J / elementary(len(w), w)


def exact(coeff: Fraction, pi_power: int) -> str:
    """The CLI's rendering of coeff * pi^pi_power."""
    return f"{_frac(coeff)} * pi^{0 if coeff == 0 else pi_power}"


def sphere_volume(w) -> str:
    n = len(w) - 1
    return exact(Fraction(2) / (factorial(n) * prod(w, start=Fraction(1))), n + 1)


def stiefel_volume(w) -> str:
    x, y, z = w
    return exact(Fraction(2, 3) / ((z * z - y * y) * (z * z - x * x)), 4)


def _lookup(doc, path):
    for key in path:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return None
    return doc


def cross_check(inst: Instance, docs: dict) -> dict:
    """Compare each job's output with the values the benchmark computed for
    its inputs.  ``docs`` maps job id to parsed --json output (jobs that did
    not produce a document are absent).  Returns {job id: reason} for every
    job whose output differs."""
    failures = {}
    for job in inst.jobs:
        if job.id not in docs:
            continue
        for path, want in job.want:
            got = _lookup(docs[job.id], path)
            if got != want:
                failures[job.id] = f"{'.'.join(map(str, path))} = {got}, expected {want}"
                break
    return failures
