"""Batch command line front end.

Parses JSON inputs, dispatches to the computation modules, and renders
exact results with their verification checks.  Output is deterministic for
a fixed (command, input, seed) triple: exit code 0 when every check passes,
1 when a check fails, 2 on malformed input.

JSON schemas (rationals are "p/q" strings):

  orbit system: {"dim_t": int, "b": [...], "codim_half": int,
                 "orbits": [{"length": {"coeff": "p/q", "pi_power": int},
                             "moment": [...], "weights": [[...], ...]}]}
  cone:         {"dim": int, "lattice_basis": [[...], ...],
                 "pi_scale_exponent": int, "normals": [[int, ...], ...],
                 "reeb": [...]}
  polytope:     {"dim": int, "normals": [[int, ...], ...], "reeb": [...]}
  root data:    {"dim_t": int, "roots": [[...], ...],
                 "weyl_reps": [[[...], ...], ...], "b": [...], "p": [...]}

Multiindex degree convention: entries of J are summed in complex degree
(so the admissible J for the secondary numbers of complex codimension m
satisfy sum(J) = m; the real-degree count in the literature is 2m).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import factorial

from .core import Matrix, PiScalar, Vector, canonical_multiindex, partitions, rat, rat_str
from .engine import (
    OrbitDatum,
    OrbitSystem,
    check_v_independence,
    dh_series,
    localize_characteristic,
    localize_volume,
    weighted_sphere_system,
)
from .errors import InconsistentSamples, InputError, LocalizationError
from .homogeneous import (
    RootData,
    homogeneous_volume,
    stiefel_closed_form,
    stiefel_four_sum,
    stiefel_so5_so3,
)
from .polytope import (
    HPolytope,
    lawrence_volume,
    msy_check,
    random_functional,
    triangulation_volume,
)
from .sampling import POSITIVE_POOL, SplitMix64, sample_distinct_positive, sample_independent
from .secondary import (
    WeightedSphereFoliation,
    asuke_closed_form,
    asuke_number,
    check_w1_identity,
)
from .toric import GoodCone, orbit_system_from_cone, toric_volume

DEFAULT_SAMPLES = 10

# What a malformed document raises while it is converted.
_MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError)


class _CliInputError(InputError):
    """Input problems detected at the CLI layer; reported as InputError."""


def _default_seed() -> int:
    raw = os.environ.get("ABBVLOC_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError as exc:
        raise _CliInputError(f"ABBVLOC_SEED must be an integer, got {raw!r}") from exc


def _rat_list(text: str) -> list:
    try:
        return [rat(part) for part in text.split(",") if part.strip() != ""]
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise _CliInputError(f"cannot parse rational list {text!r}") from exc


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise _CliInputError(f"cannot parse integer list {text!r}") from exc


def _multiindex(text: str) -> tuple:
    try:
        return canonical_multiindex(_int_list(text))
    except ValueError as exc:
        raise _CliInputError(f"bad multiindex {text!r}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliInputError(f"cannot read JSON input {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliInputError(f"JSON input {path!r} must be an object, not {type(doc).__name__}")
    return doc


def _vector(doc) -> Vector:
    return Vector(rat(x) for x in doc)


def _load_orbit_system(doc) -> OrbitSystem:
    try:
        orbits = tuple(
            OrbitDatum(
                length=PiScalar(rat(o["length"]["coeff"]), int(o["length"]["pi_power"])),
                moment=_vector(o["moment"]),
                weights=tuple(_vector(wt) for wt in o["weights"]),
            )
            for o in doc["orbits"]
        )
        return OrbitSystem(
            dim_t=int(doc["dim_t"]),
            b=_vector(doc["b"]),
            codim_half=int(doc["codim_half"]),
            orbits=orbits,
        )
    except _MALFORMED as exc:
        raise _CliInputError(f"malformed orbit system document: {exc}") from exc


def _load_cone(doc) -> GoodCone:
    try:
        basis = doc.get("lattice_basis")
        return GoodCone(
            dim=int(doc["dim"]),
            normals=tuple(_vector(v) for v in doc["normals"]),
            reeb=_vector(doc["reeb"]),
            lattice_basis=None if basis is None else Matrix(basis),
            pi_scale_exponent=int(doc.get("pi_scale_exponent", 1)),
        )
    except _MALFORMED as exc:
        raise _CliInputError(f"malformed cone document: {exc}") from exc


def _load_root_data(doc) -> RootData:
    try:
        return RootData(
            dim_t=int(doc["dim_t"]),
            roots_quotient=tuple(_vector(r) for r in doc["roots"]),
            weyl_reps=tuple(Matrix(m) for m in doc["weyl_reps"]),
            b=_vector(doc["b"]),
            projection=_vector(doc["p"]),
        )
    except _MALFORMED as exc:
        raise _CliInputError(f"malformed root data document: {exc}") from exc


def _load_section(doc) -> HPolytope:
    if "pi_scale_exponent" in doc or "lattice_basis" in doc:
        return HPolytope.from_cone(_load_cone(doc))
    try:
        return HPolytope.from_halfspaces(
            normals=tuple(_vector(v) for v in doc["normals"]),
            reeb=_vector(doc["reeb"]),
        )
    except _MALFORMED as exc:
        raise _CliInputError(f"malformed polytope document: {exc}") from exc


# ---------------------------------------------------------------------------
# report assembly


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def _report(command: str, value: PiScalar, checks: list, **payload) -> dict:
    rep = {
        "command": command,
        "exact": value.exact_str(),
        "coeff": rat_str(value.coeff),
        "pi_power": value.pi_power,
        "decimal": value.to_decimal(12),
        "checks": checks,
    }
    rep.update(payload)
    return rep


def _emit(report: dict, json_mode: bool) -> int:
    if json_mode:
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"command: {report['command']}\n")
        sys.stdout.write(f"exact: {report['exact']}\n")
        sys.stdout.write(f"decimal (advisory): {report['decimal']}\n")
        for key in sorted(report):
            if key in ("command", "exact", "decimal", "coeff", "pi_power", "checks"):
                continue
            sys.stdout.write(f"{key}: {report[key]}\n")
        sys.stdout.write("checks:\n")
        for chk in report["checks"]:
            mark = "pass" if chk["pass"] else "FAIL"
            detail = f" ({chk['detail']})" if chk["detail"] else ""
            sys.stdout.write(f"  [{mark}] {chk['name']}{detail}\n")
    return 0 if all(c["pass"] for c in report["checks"]) else 1


# ---------------------------------------------------------------------------
# subcommand handlers


def _run_independence(system, samples, seed) -> tuple:
    """check_v_independence as a check: (samples used, value, check).

    A disagreement fails the check, with value zero and no samples."""
    try:
        outcome = check_v_independence(system, samples=samples, seed=seed)
    except InconsistentSamples as exc:
        return [], PiScalar.zero(), _check("v-independence", False, str(exc))
    detail = f"{len(outcome.samples_used)} samples, {outcome.rejected_poles} poles rejected"
    return outcome.samples_used, outcome.value, _check("v-independence", True, detail)


def _resample(evaluate, dim, samples, seed) -> tuple:
    """sample_independent as a check: (value, check).

    A disagreement fails the check, which then names the first disagreeing
    pair; the value is the first sample's."""
    try:
        outcome = sample_independent(evaluate, dim, samples, seed)
    except InconsistentSamples as exc:
        return exc.value_a, _check("v-independence", False, str(exc))
    return outcome.value, _check("v-independence", True, f"{len(outcome.samples_used)} samples")


def _cmd_volume_sphere(args) -> dict:
    weights = _rat_list(args.weights)
    system = weighted_sphere_system(weights)
    n = system.codim_half
    product = Fraction(1)
    for w in weights:
        product *= w
    closed = PiScalar(Fraction(2) / (product * factorial(n)), n + 1)
    _, value, independence = _run_independence(system, args.samples, args.seed)
    consistent = independence["pass"]
    if not consistent:
        value = closed
    checks = [
        independence,
        _check(
            "closed-form match 2*pi^(n+1)/(n! prod w)",
            consistent and value == closed,
            f"expected {closed.exact_str()}",
        ),
    ]
    return _report("volume-sphere", value, checks, weights=[rat_str(w) for w in weights])


def _cmd_volume_toric(args) -> dict:
    cone = _load_cone(_load_json(args.input))
    system = orbit_system_from_cone(cone)
    samples, value, independence = _run_independence(system, args.samples, args.seed)
    # Both routes have their poles on the same samples (Cramer's rule), so
    # the determinant formula is compared at the orbit route's samples.
    agree = bool(samples)
    tested = 0
    for v in samples:
        tested += 1
        if toric_volume(cone, v) != value:
            agree = False
            break
    checks = [
        independence,
        _check(
            "two-route equality (determinant formula vs orbit data)",
            agree,
            f"{tested} samples compared",
        ),
    ]
    return _report("volume-toric", value, checks)


def _cmd_lawrence(args) -> dict:
    section = _load_section(_load_json(args.input))
    rng = SplitMix64(args.seed)
    f1 = random_functional(section, rng)
    f2 = random_functional(section, rng)
    vol1 = lawrence_volume(section, f1)
    vol2 = lawrence_volume(section, f2)
    tri = triangulation_volume(section)
    checks = [
        _check("functional independence", vol1 == vol2, f"second value {rat_str(vol2)}"),
        _check("triangulation oracle match", vol1 == tri, f"triangulation {rat_str(tri)}"),
    ]
    return _report("lawrence", PiScalar(vol1, 0), checks)


def _cmd_polytope_volume(args) -> dict:
    section = _load_section(_load_json(args.input))
    tri = triangulation_volume(section)
    alt = triangulation_volume(section, base_index=len(section.vertices) - 1)
    rng = SplitMix64(args.seed)
    law = lawrence_volume(section, random_functional(section, rng))
    checks = [
        _check("base-vertex independence", tri == alt, f"alternate base {rat_str(alt)}"),
        _check("Lawrence cross-check", tri == law, f"Lawrence {rat_str(law)}"),
    ]
    return _report(
        "polytope-volume", PiScalar(tri, 0), checks, vertex_count=len(section.vertices)
    )


def _cmd_msy_check(args) -> dict:
    cone = _load_cone(_load_json(args.input))
    result = msy_check(cone, seed=args.seed)
    checks = [
        _check(
            "cone volume equals 2 pi^(n+1) * section volume",
            result.equal,
            f"rhs {result.rhs.exact_str()}",
        )
    ]
    return _report(
        "msy-check",
        result.lhs,
        checks,
        section_volume=rat_str(result.section_volume),
    )


def _cmd_localize(args) -> dict:
    system = _load_orbit_system(_load_json(args.input))
    if args.j is None:
        _, value, independence = _run_independence(system, args.samples, args.seed)
        return _report("localize", value, [independence])
    J = _multiindex(args.j)
    if args.leaf_integrals is None:
        raise _CliInputError("characteristic mode requires --leaf-integrals")
    leaf = [PiScalar(c, 0) for c in _rat_list(args.leaf_integrals)]
    value, independence = _resample(
        lambda v: localize_characteristic(system, J, leaf, v),
        system.dim_t,
        args.samples,
        args.seed,
    )
    return _report("localize", value, [independence], multiindex=list(J))


def _cmd_dh(args) -> dict:
    system = _load_orbit_system(_load_json(args.input))
    n = system.codim_half
    order = max(args.order, 0)
    outcome = sample_independent(
        lambda v: dh_series(system, v, order), system.dim_t, 1, args.seed
    )
    coeffs = outcome.value
    checks = [
        _check(
            "coefficients below codim vanish",
            all(coeffs[s].is_zero for s in range(min(n, order + 1))),
            f"orders 0..{min(n, order + 1) - 1}",
        )
    ]
    if order >= n:
        vol = localize_volume(system, outcome.samples_used[0])
        checks.append(
            _check("order-n coefficient equals localized volume", coeffs[n] == vol, "")
        )
    return _report(
        "dh",
        coeffs[-1],
        checks,
        coefficients=[c.exact_str() for c in coeffs],
    )


def _cmd_stiefel(args) -> dict:
    w = _rat_list(args.w)
    if len(w) != 3:
        raise _CliInputError("--w must have exactly three entries")
    closed = stiefel_closed_form(w)
    try:
        outcome = sample_independent(lambda v: stiefel_four_sum(w, v), 3, 2, args.seed)
        four, second, v1 = outcome.value, outcome.value, outcome.samples_used[0]
    except InconsistentSamples as exc:
        four, second, v1 = exc.value_a, exc.value_b, exc.sample_a
    engine = homogeneous_volume(stiefel_so5_so3(), Vector(w), v1)
    checks = [
        _check("closed-form match", four == closed, f"expected {closed.exact_str()}"),
        _check("sample independence", four == second, f"second sample {second.exact_str()}"),
        _check("root-data engine match", engine == four, f"engine {engine.exact_str()}"),
    ]
    return _report("stiefel", four, checks, w=[rat_str(c) for c in w])


def _cmd_homogeneous(args) -> dict:
    if args.input is not None:
        rd = _load_root_data(_load_json(args.input))
    elif args.fixture == "stiefel-so5-so3":
        rd = stiefel_so5_so3()
    else:
        raise _CliInputError(f"unknown fixture {args.fixture!r}")
    b_prime = Vector(_rat_list(args.b_prime))
    value, independence = _resample(
        lambda v: homogeneous_volume(rd, b_prime, v), rd.dim_t, args.samples, args.seed
    )
    return _report("homogeneous", value, [independence])


def _cmd_check_w1(args) -> dict:
    m = args.m
    if m < 1:
        raise _CliInputError("--m must be a positive integer")
    if m >= len(POSITIVE_POOL):
        raise _CliInputError(
            f"--m must be below {len(POSITIVE_POOL)}: it needs m + 1 distinct values "
            f"from a pool of {len(POSITIVE_POOL)}"
        )
    if args.trials < 1:
        raise _CliInputError("--trials must be a positive integer")
    rng = SplitMix64(args.seed)
    checks = []
    all_ok = True
    for J in partitions(m):
        ok = True
        for _ in range(args.trials):
            w = sample_distinct_positive(m + 1, rng)
            if not check_w1_identity(m, J, w):
                ok = False
                break
        all_ok = all_ok and ok
        checks.append(
            _check(f"identity for J={list(J)}", ok, f"{args.trials} random weight vectors")
        )
    return _report("check-w1", PiScalar(1 if all_ok else 0, 0), checks, m=m)


def _cmd_secondary(args) -> dict:
    weights = _rat_list(args.weights)
    J = _multiindex(args.j)
    foliation = WeightedSphereFoliation(m=len(weights) - 1, w=tuple(weights))
    closed = asuke_closed_form(foliation, J)
    value, independence = _resample(
        lambda v: asuke_number(foliation, J, v), len(weights), args.samples, args.seed
    )
    checks = [
        independence,
        _check("closed-form match s1 sJ / s(m+1)", value == closed, f"expected {rat_str(closed)}"),
    ]
    return _report(
        "secondary",
        PiScalar(value, 0),
        checks,
        multiindex=list(J),
        weights=[rat_str(w) for w in weights],
    )


def _cmd_check_v_independence(args) -> dict:
    system = _load_orbit_system(_load_json(args.input))
    _, value, independence = _run_independence(system, args.samples, args.seed)
    return _report("check-v-independence", value, [independence])


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abbvloc",
        description=(
            "Exact localized sums over closed orbits: sphere and toric "
            "volumes, polytope volumes, Duistermaat-Heckman coefficients "
            "and secondary characteristic numbers, each verified against "
            "an independent oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, samples=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=None, help="sampling seed (default 42, env ABBVLOC_SEED)")
        if samples:
            p.add_argument(
                "--samples", type=int, default=DEFAULT_SAMPLES,
                help="pole-free sample vectors that must agree (at least 2)",
            )
        return p

    p = add("volume-sphere", _cmd_volume_sphere, "volume of a weighted odd sphere", samples=True)
    p.add_argument("--weights", required=True, help="comma-separated positive rationals")

    p = add("volume-toric", _cmd_volume_toric, "volume from a moment cone", samples=True)
    p.add_argument("--input", required=True, help="cone JSON file or - for stdin")

    p = add("lawrence", _cmd_lawrence, "section volume by the vertex formula")
    p.add_argument("--input", required=True, help="cone or polytope JSON file")

    p = add("polytope-volume", _cmd_polytope_volume, "section volume by triangulation")
    p.add_argument("--input", required=True, help="cone or polytope JSON file")

    p = add("msy-check", _cmd_msy_check, "cone volume vs section volume bridge")
    p.add_argument("--input", required=True, help="cone JSON file")

    p = add("localize", _cmd_localize, "localized sum over an orbit system", samples=True)
    p.add_argument("--input", required=True, help="orbit system JSON file")
    p.add_argument("--j", default=None, help="multiindex for characteristic mode")
    p.add_argument("--leaf-integrals", default=None, help="per-orbit rational integrals")

    p = add("dh", _cmd_dh, "Duistermaat-Heckman series coefficients")
    p.add_argument("--input", required=True, help="orbit system JSON file")
    p.add_argument("--order", type=int, default=4, help="highest coefficient order")

    p = add("stiefel", _cmd_stiefel, "volume of the deformed SO(5)/SO(3)")
    p.add_argument("--w", required=True, help="Reeb deformation x,y,z")

    p = add("homogeneous", _cmd_homogeneous, "volume from root data", samples=True)
    p.add_argument("--input", default=None, help="root data JSON file")
    p.add_argument("--fixture", default="stiefel-so5-so3", help="built-in fixture name")
    p.add_argument("--b-prime", required=True, help="deformed Reeb element")

    p = add("check-w1", _cmd_check_w1, "elementary symmetric polynomial identity")
    p.add_argument("--m", type=int, required=True, help="degree (number of values minus one)")
    p.add_argument("--trials", type=int, default=50, help="random weight vectors per multiindex")

    p = add("secondary", _cmd_secondary, "secondary characteristic number", samples=True)
    p.add_argument("--weights", required=True, help="comma-separated distinct positive rationals")
    p.add_argument("--j", required=True, help="multiindex, complex degree = codimension")

    p = add("check-v-independence", _cmd_check_v_independence, "resample a localized volume", samples=True)
    p.add_argument("--input", required=True, help="orbit system JSON file")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if "samples" in vars(args) and args.samples < 2:
            raise _CliInputError("need at least 2 samples")
        report = args.handler(args)
        return _emit(report, args.json)
    except LocalizationError as exc:
        name = type(exc).__name__
        if name.startswith("_"):
            name = "InputError"
        error = {"error": {"type": name, "message": str(exc)}}
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
