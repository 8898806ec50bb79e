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

from .core import PiScalar, Vector, canonical_multiindex, partitions, rat, rat_str
from .engine import (
    LeafIntegrals,
    OrbitDatum,
    OrbitSystem,
    _row,
    check_v_independence,
    dh_series,
    localize_characteristic,
    localize_volume,
    weighted_sphere_system,
)
from .errors import InconsistentSamples, InputError, LocalizationError, PoleAtSample
from .homogeneous import (
    RootData,
    homogeneous_volume,
    root_data_system,
    stiefel_closed_form,
    stiefel_four_sum,
    stiefel_so5_so3,
)
from .polytope import (
    HPolytope,
    msy_check,
    sample_lawrence,
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
# Highest `dh --order`.  Exact coefficients grow with the order: 1000 takes
# about 0.3 s on the (1, 2) sphere.  Below the cap, a coefficient past
# Python's 4300-digit printing limit is refused by rat_str (exit 2).
DH_MAX_ORDER = 1000
# Highest `--samples`.  `volume-toric` timed cold (Python 3.11, Intel Xeon):
# cube cone 10 (1024 vertices, toric.MAX_VERTICES) has 7 pole-free samples
# in 100 draws, 0.7 s at `--samples 7`; a sphere cone of 40 weights takes
# 0.25 s at `--samples 25`.  Nothing caps the dimension, which sets a sample's cost.
MAX_SAMPLES = 25
# Highest `check-w1 --trials`.  At the largest `--m`, 13, every vector is an
# ordering of the whole 14-value POSITIVE_POOL, and each one is checked for
# all 101 multiindices: 500 take about 1 s cold (Python 3.11, Intel Xeon).
MAX_TRIALS = 500

# What a malformed document raises while it is converted.
_MALFORMED = (KeyError, TypeError, ValueError, ZeroDivisionError)


def _default_seed() -> int:
    raw = os.environ.get("ABBVLOC_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"ABBVLOC_SEED must be an integer, got {raw!r}") from exc


def _rat_list(text: str) -> list:
    try:
        return [rat(part) for part in text.split(",") if part.strip() != ""]
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"cannot parse rational list {text!r}") from exc


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"cannot parse integer list {text!r}") from exc


def _multiindex(text: str) -> tuple:
    try:
        return canonical_multiindex(_int_list(text))
    except ValueError as exc:
        raise InputError(f"bad multiindex {text!r}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an integer over 4300 digits
        raise InputError(f"cannot read JSON input {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"JSON input {path!r} must be an object, not {type(doc).__name__}")
    return doc


class _Literals(dict):
    """The values of one document's literals: ``literals[x]`` is ``rat(x)``,
    with each distinct string parsed once, at its first lookup, so a hit
    costs one dict lookup in C.  The loaders make one per document and keep
    none across calls.  Only strings are kept: ``true`` hashes equal to
    ``1``, and ``rat`` must see it each time to refuse it."""

    def __missing__(self, x):
        q = rat(x)
        if type(x) is str:
            self[x] = q
        return q


def _rational(x, memo: _Literals) -> Fraction:
    """``rat(x)``, with a string looked up in the document's literals."""
    return memo[x] if type(x) is str else rat(x)


def _vector(doc, memo: _Literals) -> list:
    """A JSON array of rationals as a list of Fractions, in one pass."""
    if not isinstance(doc, list):
        raise TypeError(f"expected a JSON array, got {type(doc).__name__}")
    try:
        return list(map(memo.__getitem__, doc))
    except TypeError:
        # an unhashable literal fails in the lookup: let rat word the error
        return [_rational(x, memo) for x in doc]


def _integer(doc) -> int:
    """An integer field: what ``rat`` takes, with denominator 1."""
    q = rat(doc)
    if q.denominator != 1:
        raise ValueError(f"expected an integer, got {doc!r}")
    return q.numerator


def _matrix(doc, memo: _Literals) -> tuple:
    """A JSON array of rows of rationals as a tuple of row tuples.  Every
    row is parsed before the widths are compared, so a bad literal is
    reported before ragged rows."""
    if not isinstance(doc, list):
        raise TypeError(f"expected a JSON array of rows, got {type(doc).__name__}")
    rows = tuple(tuple(_vector(row, memo)) for row in doc)
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged rows")
    return rows


def _load_orbit_system(doc) -> OrbitSystem:
    memo = _Literals()
    try:
        orbits = tuple(
            OrbitDatum(
                length=PiScalar(_rational(o["length"]["coeff"], memo),
                                _integer(o["length"]["pi_power"])),
                integer_rows=(_row(_vector(o["moment"], memo)),
                              *(_row(_vector(wt, memo)) for wt in o["weights"])),
            )
            for o in doc["orbits"]
        )
        dim_t = _integer(doc["dim_t"])
        # The package's own systems have pi powers 1, 0 or 1 - dim_t; the
        # bound also caps the cost of the advisory decimal.
        for pi_power in (_integer(o["length"]["pi_power"]) for o in doc["orbits"]):
            if abs(pi_power) > dim_t:
                raise InputError(f"orbit length pi_power {pi_power} is out of range: "
                                 f"|pi_power| must be at most dim_t = {dim_t}")
        return OrbitSystem(
            dim_t=dim_t,
            b=_vector(doc["b"], memo),
            codim_half=_integer(doc["codim_half"]),
            orbits=orbits,
        )
    except _MALFORMED as exc:
        raise InputError(f"malformed orbit system document: {exc}") from exc


def _load_cone(doc) -> GoodCone:
    memo = _Literals()
    try:
        basis = doc.get("lattice_basis")
        return GoodCone(
            dim=_integer(doc["dim"]),
            normals=tuple(_vector(v, memo) for v in doc["normals"]),
            reeb=_vector(doc["reeb"], memo),
            lattice_basis=None if basis is None else _matrix(basis, memo),
            pi_scale_exponent=_integer(doc.get("pi_scale_exponent", 1)),
        )
    except _MALFORMED as exc:
        raise InputError(f"malformed cone document: {exc}") from exc


def _load_root_data(doc) -> RootData:
    memo = _Literals()
    try:
        return RootData(
            dim_t=_integer(doc["dim_t"]),
            roots_quotient=tuple(_vector(r, memo) for r in doc["roots"]),
            weyl_reps=tuple(_matrix(m, memo) for m in doc["weyl_reps"]),
            b=_vector(doc["b"], memo),
            projection=_vector(doc["p"], memo),
        )
    except _MALFORMED as exc:
        raise InputError(f"malformed root data document: {exc}") from exc


def _load_section(doc) -> HPolytope:
    if "pi_scale_exponent" in doc or "lattice_basis" in doc:
        return _load_cone(doc).section
    memo = _Literals()
    try:
        normals = tuple(_vector(v, memo) for v in doc["normals"])
        reeb = _vector(doc["reeb"], memo)
        dim = _integer(doc["dim"])
        if dim != len(reeb):
            raise InputError(f"dim is {dim} but the Reeb vector has {len(reeb)} entries")
        return HPolytope.from_halfspaces(normals=normals, reeb=reeb)
    except _MALFORMED as exc:
        raise InputError(f"malformed polytope document: {exc}") from exc


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
        return (), PiScalar.zero(), _check("v-independence", False, str(exc))
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
    # the determinant formula is compared at the orbit route's samples, and
    # a pole there is a disagreement.
    agree, detail, tested = bool(samples), "", 0
    for v in samples:
        tested += 1
        try:
            agree = toric_volume(cone, v) == value
        except PoleAtSample as exc:
            agree, detail = False, f": the determinant formula has a pole, {exc}"
        if not agree:
            break
    two_route = _check("two-route equality (determinant formula vs orbit data)",
                       agree, f"{tested} samples compared{detail}")
    return _report("volume-toric", value, [independence, two_route])


def _cmd_lawrence(args) -> dict:
    section = _load_section(_load_json(args.input))
    try:
        vol1 = vol2 = sample_lawrence(section, 2, args.seed).value
    except InconsistentSamples as exc:
        vol1, vol2 = exc.value_a, exc.value_b
    tri = triangulation_volume(section)
    checks = [
        _check("functional independence", vol1 == vol2, f"second value {rat_str(vol2)}"),
        _check("triangulation oracle match", vol1 == tri, f"triangulation {rat_str(tri)}"),
    ]
    return _report("lawrence", PiScalar(vol1, 0), checks)


def _cmd_polytope_volume(args) -> dict:
    section = _load_section(_load_json(args.input))
    tri = triangulation_volume(section)
    # pulled from vertex 1 and every proper face from its smallest vertex
    alt = triangulation_volume(section, order=(1, 0, *range(2, len(section.orbits))))
    law = sample_lawrence(section, 1, args.seed).value
    checks = [
        _check("base-vertex independence", tri == alt, f"alternate base {rat_str(alt)}"),
        _check("Lawrence cross-check", tri == law, f"Lawrence {rat_str(law)}"),
    ]
    return _report(
        "polytope-volume", PiScalar(tri, 0), checks, vertex_count=len(section.orbits)
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
    """localize, and check-v-independence, which is localize without --j."""
    system = _load_orbit_system(_load_json(args.input))
    j, leaf_integrals = getattr(args, "j", None), getattr(args, "leaf_integrals", None)
    if j is None:
        if leaf_integrals is not None:
            raise InputError("--leaf-integrals requires --j")
        _, value, independence = _run_independence(system, args.samples, args.seed)
        return _report(args.command, value, [independence])
    J = _multiindex(j)
    if leaf_integrals is None:
        raise InputError("characteristic mode requires --leaf-integrals")
    leaf = LeafIntegrals(PiScalar(c, 0) for c in _rat_list(leaf_integrals))
    value, independence = _resample(
        lambda v: localize_characteristic(system, J, leaf, v),
        system.dim_t,
        args.samples,
        args.seed,
    )
    return _report(args.command, value, [independence], multiindex=list(J))


def _cmd_dh(args) -> dict:
    system = _load_orbit_system(_load_json(args.input))
    n = system.codim_half
    if args.order < n:
        raise InputError(
            f"--order must be at least the complex codimension {n}, got {args.order}"
        )
    if args.order > DH_MAX_ORDER:
        raise InputError(f"--order must be at most {DH_MAX_ORDER}, got {args.order}")
    outcome = sample_independent(
        lambda v: dh_series(system, v, args.order), system.dim_t, 1, args.seed
    )
    coeffs = outcome.value
    vol = localize_volume(system, outcome.samples_used[0])
    checks = [
        _check(
            "coefficients below codim vanish",
            all(coeffs[s].is_zero for s in range(n)),
            f"orders 0..{n - 1}",
        ),
        _check("order-n coefficient equals localized volume", coeffs[n] == vol, ""),
    ]
    return _report(
        "dh",
        coeffs[-1],
        checks,
        coefficients=[c.exact_str() for c in coeffs],
    )


def _cmd_stiefel(args) -> dict:
    w = _rat_list(args.w)
    if len(w) != 3:
        raise InputError("--w must have exactly three entries")
    closed = stiefel_closed_form(w)
    try:
        outcome = sample_independent(lambda v: stiefel_four_sum(w, v), 3, 2, args.seed)
        four, second, v1 = outcome.value, outcome.value, outcome.samples_used[0]
    except InconsistentSamples as exc:
        four, second, v1 = exc.value_a, exc.value_b, exc.sample_a
    try:  # the four-sum accepted v1, so a pole of this route there is a disagreement
        engine = homogeneous_volume(stiefel_so5_so3(), Vector(w), v1)
        match, detail = engine == four, f"engine {engine.exact_str()}"
    except PoleAtSample as exc:
        match, detail = False, f"engine pole: {exc}"
    checks = [
        _check("closed-form match", four == closed, f"expected {closed.exact_str()}"),
        _check("sample independence", four == second, f"second sample {second.exact_str()}"),
        _check("root-data engine match", match, detail),
    ]
    return _report("stiefel", four, checks, w=[rat_str(c) for c in w])


def _cmd_homogeneous(args) -> dict:
    if args.input is not None:
        if args.fixture is not None:
            raise InputError("--input and --fixture exclude each other")
        rd = _load_root_data(_load_json(args.input))
    elif args.fixture in (None, "stiefel-so5-so3"):
        rd = stiefel_so5_so3()
    else:
        raise InputError(f"unknown fixture {args.fixture!r}")
    system = root_data_system(rd, Vector(_rat_list(args.b_prime)))
    value, independence = _resample(
        lambda v: localize_volume(system, v), rd.dim_t, args.samples, args.seed
    )
    return _report("homogeneous", value, [independence])


def _cmd_check_w1(args) -> dict:
    m = args.m
    if m < 1:
        raise InputError("--m must be a positive integer")
    if m >= len(POSITIVE_POOL):
        raise InputError(
            f"--m must be below {len(POSITIVE_POOL)}: it needs m + 1 distinct values "
            f"from a pool of {len(POSITIVE_POOL)}"
        )
    if args.trials < 1:
        raise InputError("--trials must be a positive integer")
    if args.trials > MAX_TRIALS:
        raise InputError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    rng = SplitMix64(args.seed)
    Js = partitions(m)
    verdicts = [
        check_w1_identity(m, Js, sample_distinct_positive(m + 1, rng)) for _ in range(args.trials)
    ]
    ok = [all(column) for column in zip(*verdicts)]
    checks = [
        _check(f"identity for J={list(J)}", good, f"{args.trials} random weight vectors")
        for J, good in zip(Js, ok)
    ]
    return _report("check-w1", PiScalar(1 if all(ok) else 0, 0), checks, m=m)


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


# ---------------------------------------------------------------------------
# argument parsing


# One row per subcommand, in the order help lists them: name -> (handler,
# help, whether it takes --samples, its own arguments as (flag, keywords of
# add_argument)).  Every subcommand also takes --json and --seed.
_COMMANDS = {
    "volume-sphere": (_cmd_volume_sphere, "volume of a weighted odd sphere", True, (
        ("--weights", dict(required=True, help="comma-separated positive rationals")),
    )),
    "volume-toric": (_cmd_volume_toric, "volume from a moment cone", True, (
        ("--input", dict(required=True, help="cone JSON file or - for stdin")),
    )),
    "lawrence": (_cmd_lawrence, "section volume by the vertex formula", False, (
        ("--input", dict(required=True, help="cone or polytope JSON file")),
    )),
    "polytope-volume": (_cmd_polytope_volume, "section volume by triangulation", False, (
        ("--input", dict(required=True, help="cone or polytope JSON file")),
    )),
    "msy-check": (_cmd_msy_check, "cone volume vs section volume bridge", False, (
        ("--input", dict(required=True, help="cone JSON file")),
    )),
    "localize": (_cmd_localize, "localized sum over an orbit system", True, (
        ("--input", dict(required=True, help="orbit system JSON file")),
        ("--j", dict(default=None, help="multiindex for characteristic mode")),
        ("--leaf-integrals", dict(default=None, help="per-orbit rational integrals")),
    )),
    "dh": (_cmd_dh, "Duistermaat-Heckman series coefficients", False, (
        ("--input", dict(required=True, help="orbit system JSON file")),
        ("--order", dict(type=int, default=4, help="highest coefficient order, from the "
                         f"complex codimension to {DH_MAX_ORDER}")),
    )),
    "stiefel": (_cmd_stiefel, "volume of the deformed SO(5)/SO(3)", False, (
        ("--w", dict(required=True, help="Reeb deformation x,y,z")),
    )),
    "homogeneous": (_cmd_homogeneous, "volume from root data", True, (
        ("--input", dict(default=None, help="root data JSON file")),
        ("--fixture", dict(default=None, help="built-in fixture name")),
        ("--b-prime", dict(required=True, help="deformed Reeb element")),
    )),
    "check-w1": (_cmd_check_w1, "elementary symmetric polynomial identity", False, (
        ("--m", dict(type=int, required=True, help="degree (number of values minus one)")),
        ("--trials", dict(type=int, default=50, help="random weight vectors, each checked "
                          f"for every multiindex, at most {MAX_TRIALS}")),
    )),
    "secondary": (_cmd_secondary, "secondary characteristic number", True, (
        ("--weights", dict(required=True, help="comma-separated distinct positive rationals")),
        ("--j", dict(required=True, help="multiindex, complex degree = codimension")),
    )),
    "check-v-independence": (_cmd_localize, "resample a localized volume", True, (
        ("--input", dict(required=True, help="orbit system JSON file")),
    )),
}


class _Store(argparse.Action):
    """argparse's store action, reading ``--option=--`` as Python 3.13 does:
    3.10-3.12 drop the ``--`` and store an empty list, which no handler
    takes.  A string option stores ``"--"``; a typed one is a parse error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            if self.type is not None:
                raise argparse.ArgumentError(self, f"invalid {self.type.__name__} value: '--'")
            values = "--"
        setattr(namespace, self.dest, values)


class _ParseError(Exception):
    """Raised by a one-subcommand parser instead of printing an error."""


class _OneCommandParser(argparse.ArgumentParser):
    """The parser of one subcommand, as ``abbvloc <name>``.  Its error
    messages would not read as the full parser's, so it prints none and
    raises _ParseError for the full parser to parse the same argv again."""

    def error(self, message):
        raise _ParseError(message)


def _add_arguments(parser, name):
    """Give ``parser`` the handler, defaults and options of subcommand ``name``."""
    handler, _, samples, arguments = _COMMANDS[name]
    parser.set_defaults(handler=handler, command=name)
    parser.register("action", None, _Store)  # every option but --json
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=None, help="sampling seed (default 42, env ABBVLOC_SEED)")
    if samples:
        parser.add_argument(
            "--samples", type=int, default=DEFAULT_SAMPLES,
            help=f"pole-free sample vectors that must agree, from 2 to {MAX_SAMPLES}",
        )
    for flag, options in arguments:
        parser.add_argument(flag, **options)


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
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
    for name, (_, help, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help), name)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; return its exit code.

    When argv names a subcommand, only that subcommand's parser is built.
    The parser of every subcommand is built only to print top-level help or
    a parse error, so those read as they always have."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = None
    if argv and argv[0] in _COMMANDS:
        parser = _OneCommandParser(prog=f"abbvloc {argv[0]}")
        _add_arguments(parser, argv[0])
        try:
            args = parser.parse_args(argv[1:])
        except _ParseError:
            pass
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if "samples" in vars(args):
            if args.samples < 2:
                raise InputError("need at least 2 samples")
            if args.samples > MAX_SAMPLES:
                raise InputError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
        report = args.handler(args)
        return _emit(report, args.json)
    except LocalizationError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
