"""Tests of the benchmark itself: generators, wrappers, self-time
arithmetic and the exactness gate.

    python3 -m pytest bench/tests -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import inputs
import run
import tracing
import workloads
from abbvloc.engine import weighted_sphere_system
from abbvloc.toric import GoodCone, enumerate_vertices


def _cone(doc) -> GoodCone:
    return GoodCone(dim=doc["dim"], normals=doc["normals"], reeb=doc["reeb"])


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_cube_cones_are_good_with_2_to_the_k_vertices(k, seed):
    doc, count = inputs.cube_cone(k, seed)
    assert count == 2**k
    assert len(enumerate_vertices(_cone(doc))) == count


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("a,b", workloads.PRODUCTS)
def test_simplex_products_are_good_with_product_vertex_count(a, b, seed):
    doc, count = inputs.simplex_product_cone(a, b, seed)
    assert count == (a + 1) * (b + 1)
    assert len(enumerate_vertices(_cone(doc))) == count


def test_generators_are_deterministic_and_seeded():
    assert inputs.cube_cone(3, 7) == inputs.cube_cone(3, 7)
    reebs = {tuple(inputs.cube_cone(4, seed)[0]["reeb"]) for seed in range(8)}
    assert len(reebs) > 1
    assert len({tuple(inputs.cube_cone(2, 7, slot)[0]["reeb"]) for slot in range(25)}) == 25
    assert inputs.sphere_weights(16, 3) == inputs.sphere_weights(16, 3)


def test_section_volume_closed_forms():
    # Cube cone 2 at Reeb (3, 1, 1): (1/3 - 2/4 + 1/5) / 2! = 1/60.
    assert inputs.cube_section_volume([3, 1, 1]) == Fraction(1, 60)
    # Delta^1 x Delta^0 is the cube cone 1 with the same Reeb.
    for reeb in ([2, 1], [5, Fraction(3, 2)]):
        assert inputs.simplex_product_section_volume(1, 0, reeb) == inputs.cube_section_volume(reeb)
    # Delta^a x Delta^0 is a unimodular simplex: 1 / (a! prod <b, ray>).
    assert inputs.simplex_product_section_volume(2, 0, [3, 1, 2]) == Fraction(1, 2 * 3 * 4 * 5)


def _inputs(inst):
    """The inputs of every job: file contents and weight arguments."""
    out = []
    for job in inst.jobs:
        argv = list(job.argv)
        if "--input" in argv:
            with open(argv[argv.index("--input") + 1], encoding="utf-8") as fh:
                out.append(fh.read())
        for flag in ("--weights", "--w", "--b-prime"):
            if flag in argv:
                out.append(argv[argv.index(flag) + 1])
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_two_jobs_or_warm_up_jobs_share_an_input(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    timed = workloads.build(workload, 4, str(tmp_path / "a"))
    warm = workloads.build(workload, 4, str(tmp_path / "b"), warm_up=True)
    assert len(set(_inputs(timed))) == len(_inputs(timed))
    assert not set(_inputs(timed)) & set(_inputs(warm))
    # check-w1 reads nothing but --m and --seed
    assert warm.job_seed != timed.job_seed


@pytest.mark.parametrize("d", workloads.SPHERE_DIMS)
def test_sphere_system_matches_the_library_fixture(d):
    w = inputs.sphere_weights(d, 5)
    assert len(set(w)) == d and min(w) > 0
    doc = inputs.sphere_system(w)
    system = weighted_sphere_system(w)
    assert [Fraction(x) for x in doc["b"]] == list(system.b)
    for got, want in zip(doc["orbits"], system.orbits):
        assert Fraction(got["length"]["coeff"]) == want.length.coeff
        assert [Fraction(x) for x in got["moment"]] == list(want.moment)
        assert [[Fraction(x) for x in a] for a in got["weights"]] == [list(a) for a in want.weights]


def _modules():
    importlib.import_module("abbvloc.cli")
    return {name: sys.modules[f"abbvloc.{name}"] for name in ("core", "engine", "toric", "polytope", "errors")}


def _bindings():
    mods = _modules()
    owners = [m for name, m in sys.modules.items() if name.startswith("abbvloc")]
    owners += [mods["core"].Matrix, mods["core"].Covector, mods["engine"].OrbitSystem]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_time_sibling_imports_and_restore_the_originals():
    mods = _modules()
    core, toric, polytope = mods["core"], mods["toric"], mods["polytope"]
    before = _bindings()
    original_det = core.det
    with tracing.Recorder() as rec:
        assert core.det is not original_det
        assert toric.det is core.det and polytope.det is core.det
        rec.job = "j"
        with pytest.raises(mods["errors"].PoleAtSample):
            toric.toric_volume(toric.simplex_cone(2), [1, 1])
        core.Matrix([[1, 2], [3, 4]]).inverse()
    assert _bindings() == before
    names = [s[tracing.NAME] for s in rec.spans]
    assert "toric.toric_volume" in names and "toric.enumerate_vertices" in names
    assert "core.Matrix.inverse" in names
    assert rec.spans[names.index("toric.toric_volume")][tracing.ERROR] == "PoleAtSample"
    assert rec.counts["core.Covector.call"] > 0


def _span(name, parent, start, end, job="j"):
    return [name, parent, job, start, end, None, None]


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        _span("cli.main", -1, 0, 100),
        _span("toric.enumerate_vertices", 0, 10, 60),
        _span("core.solve_linear", 1, 15, 25),
        _span("core.solve_linear", 1, 30, 45),
        _span("core.det", 0, 70, 90),
        _span("cli.main", -1, 200, 230),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [30, 25, 10, 15, 20, 30]
    assert tracing.check_self_time_sum(spans, selfs) == (130, 130)
    metrics = tracing.layer_metrics(spans, selfs, Counter(), passes=1)
    assert metrics["toric.enum.solves"]["value"] == 2
    assert metrics["cli.self_s"]["value"] == pytest.approx(60e-9)
    assert metrics["core.solve_linear.self_s"]["value"] == pytest.approx(25e-9)
    orphan = spans + [_span("core.det", -1, 300, 310)]
    assert tracing.check_self_time_sum(orphan, tracing.self_times(orphan)) == (140, 130)


@pytest.fixture(scope="module")
def small_pass(tmp_path_factory):
    """The small jobs of one sections instance, run in-process."""
    assert run.use_source()
    cli = run.load_program()
    inst = workloads.build("sections", 3, str(tmp_path_factory.mktemp("inputs")))
    inst.jobs = [job for job in inst.jobs if job.small]
    results = run.run_pass(cli, inst)
    return inst, results


def test_gate_passes_on_the_program_outputs(small_pass):
    inst, results = small_pass
    golden = {"3": {job.id: run.digest(results[job.id].stdout) for job in inst.jobs}}
    assert run.check_pass(inst, results, golden) == {}


def test_a_wrong_golden_entry_is_a_failure(small_pass):
    inst, results = small_pass
    golden = {"3": {job.id: run.digest(results[job.id].stdout) for job in inst.jobs}}
    wrong = inst.jobs[1].id
    golden["3"][wrong] = "0" * 16
    assert set(run.check_pass(inst, results, golden)) == {wrong}
    assert run.check_pass(inst, results, {"4": {}}) == {}


def test_a_wrong_value_is_a_failure(small_pass):
    inst, results = small_pass
    tampered = dict(results)
    for job_id, key in (("lawrence:cube-2", "exact"), ("polytope-volume:cube-3", "vertex_count")):
        doc = json.loads(results[job_id].stdout)
        doc[key] = 1
        tampered[job_id] = run.Result(0, json.dumps(doc), 0.0)
    tampered["lawrence:delta-1x1"] = run.Result(0, "{}", 0.0)
    failures = run.check_pass(inst, tampered, {})
    assert set(failures) == {"lawrence:cube-2", "polytope-volume:cube-3", "lawrence:delta-1x1"}


def test_exit_codes_and_exceptions_are_failures(small_pass):
    inst, results = small_pass
    broken = dict(results)
    broken["polytope-volume:cube-3"] = run.Result(1, results["polytope-volume:cube-3"].stdout, 0.0)
    broken["lawrence:cube-3"] = run.Result(None, "", 0.0, "uncaught ZeroDivisionError: x")
    failures = run.check_pass(inst, broken, {})
    assert failures["polytope-volume:cube-3"] == "exit code 1"
    assert failures["lawrence:cube-3"].startswith("uncaught ZeroDivisionError")


@pytest.mark.parametrize("name", ["cube-2", "cube-3", "delta-1x1", "delta-2x2"])
def test_section_volume_routes_agree_with_the_closed_form(name, tmp_path):
    """lawrence = polytope-volume = msy-check section_volume = the
    generator's closed form, all on one generated cone."""
    assert run.use_source()
    cli = run.load_program()
    inst = workloads.build("sections", 11, str(tmp_path))
    path = _job(inst, f"lawrence:{name}").argv[2]
    want = dict(_job(inst, f"lawrence:{name}").want)[("exact",)]
    values = []
    for cmd in ("lawrence", "polytope-volume", "msy-check"):
        res = run.run_job(cli, workloads.Job(cmd, (cmd, "--input", path, "--json", "--seed", "11")))
        doc = json.loads(res.stdout)
        values.append(doc.get("section_volume", doc.get("coeff")))
    assert values[0] == values[1] == values[2]
    assert want == workloads.exact(Fraction(values[0]), 0)


def _job(inst, job_id):
    return next(job for job in inst.jobs if job.id == job_id)


def test_oracles():
    assert workloads.elementary(2, [1, 2, 3]) == 11
    assert workloads.sphere_volume([Fraction(1), Fraction(2)]) == "1 * pi^2"
    assert workloads.stiefel_volume((Fraction(0), Fraction(0), Fraction(1))) == "2/3 * pi^4"


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sections", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
