import argparse
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import abbvloc.cli
import abbvloc.homogeneous
from abbvloc.cli import (DH_MAX_ORDER, MAX_SAMPLES, MAX_TRIALS, _COMMANDS, _build_parser,
                         _load_cone, _load_orbit_system, main)
from abbvloc.core import PiScalar, Vector, partitions, rat, rat_str
from abbvloc.engine import OrbitSystem, weighted_sphere_system
from abbvloc.errors import InputError, PoleAtSample
from abbvloc.homogeneous import stiefel_so5_so3
from abbvloc.sampling import SplitMix64, sample_distinct_positive
from abbvloc.secondary import check_w1_identity
from abbvloc.toric import MAX_VERTICES, GoodCone, enumerate_vertices
from matrix_oracle import apply
from orbit_oracle import orbit_datum
from test_cli_golden import cube_cone_doc
from test_cli_golden import sphere_system_doc as weighted_sphere_system_doc


# Cones that fail the goodness test, keyed by the index of the sublattice
# that the active normals of their first failing vertex span: (that
# vertex's facets, the cone document).
NOT_GOOD_CONES = {
    2: ((0, 1), {"dim": 3, "pi_scale_exponent": 1,
                 "normals": [[-1, 1, 0], [-1, -1, 0], [0, 0, -1]], "reeb": ["1", "0", "1"]}),
    3: ((1, 2), {"dim": 3, "pi_scale_exponent": 1,
                 "normals": [[3, -3, 2], [0, -1, 2], [3, -2, 1], [-3, -1, -3]],
                 "reeb": ["3", "1", "2"]}),
    # Smith divisors (1, 2, 2)
    4: ((0, 1, 2), {"dim": 4, "pi_scale_exponent": 1,
                    "normals": [[-1, 0, 0, 0], [-1, -2, 0, 0], [-1, 0, -2, 0], [0, 0, 0, -1]],
                    "reeb": ["1", "1", "1", "1"]}),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sphere_cone_doc(weights):
    d = len(weights)
    normals = []
    for i in range(d):
        row = [0] * d
        row[i] = -1
        normals.append(row)
    return {
        "dim": d,
        "pi_scale_exponent": 1,
        "normals": normals,
        "reeb": [str(w) for w in weights],
    }


def sphere_system_doc():
    return {
        "dim_t": 2,
        "b": ["1", "2"],
        "codim_half": 1,
        "orbits": [
            {
                "length": {"coeff": "2", "pi_power": 1},
                "moment": ["1", "0"],
                "weights": [["2", "-1"]],
            },
            {
                "length": {"coeff": "1", "pi_power": 1},
                "moment": ["0", "1/2"],
                "weights": [["-1", "1/2"]],
            },
        ],
    }


def root_data_doc():
    return {
        "dim_t": 3,
        "roots": [["1", "0", "0"], ["1", "1", "0"], ["1", "-1", "0"]],
        "weyl_reps": [
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
            [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "1"]],
        ],
        "b": ["0", "0", "1"],
        "p": ["-1", "0", "1"],
    }


def input_coordinates(basis, v) -> list:
    """B v as "p/q" strings: the input coordinates of the lattice vector v
    over the lattice basis B (a list of rows)."""
    return [rat_str(x) for x in apply(basis, Vector(v))]


def corrupted_system_doc():
    doc = sphere_system_doc()
    doc["orbits"] = doc["orbits"][:1]
    return doc


class TestVolumeSphere:
    def test_spot_value(self, capsys):
        code, out = run_cli(capsys, "volume-sphere", "--weights", "1,2")
        assert code == 0
        assert "exact: 1 * pi^2" in out
        assert "decimal (advisory): 9.86960440109" in out

    def test_json_mode(self, capsys):
        code, out = run_cli(capsys, "volume-sphere", "--weights", "1,2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == "1 * pi^2"
        assert doc["coeff"] == "1"
        assert doc["pi_power"] == 2
        assert all(c["pass"] for c in doc["checks"])

    def test_equal_weights_is_input_error(self, capsys):
        code, out = run_cli(capsys, "volume-sphere", "--weights", "1,1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InputError"

    def test_bad_rational_is_input_error(self, capsys):
        code, out = run_cli(capsys, "volume-sphere", "--weights", "1,zebra")
        assert code == 2
        assert "error" in json.loads(out)


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, first = run_cli(capsys, "volume-sphere", "--weights", "2,3,7", "--seed", "5")
        _, second = run_cli(capsys, "volume-sphere", "--weights", "2,3,7", "--seed", "5")
        assert first == second

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ABBVLOC_SEED", "17")
        _, via_env = run_cli(capsys, "volume-sphere", "--weights", "1,2", "--json")
        monkeypatch.delenv("ABBVLOC_SEED")
        _, via_flag = run_cli(
            capsys, "volume-sphere", "--weights", "1,2", "--seed", "17", "--json"
        )
        assert via_env == via_flag

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ABBVLOC_SEED", "not-a-number")
        code, out = run_cli(capsys, "volume-sphere", "--weights", "1,2")
        assert code == 2


class TestToricCommands:
    def test_volume_toric(self, capsys, tmp_path):
        path = write_json(tmp_path, "cone.json", sphere_cone_doc([1, 2]))
        code, out = run_cli(capsys, "volume-toric", "--input", path)
        assert code == 0
        assert "exact: 1 * pi^2" in out

    def test_volume_toric_stdin(self, capsys, monkeypatch, tmp_path):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(sphere_cone_doc([1, 2])))
        )
        code, out = run_cli(capsys, "volume-toric", "--input", "-", "--json")
        assert code == 0
        assert json.loads(out)["exact"] == "1 * pi^2"

    def test_goodness_violation_exit_2(self, capsys, tmp_path):
        doc = {
            "dim": 3,
            "pi_scale_exponent": 1,
            "normals": [[-1, 1, 0], [-1, -1, 0], [0, 0, -1]],
            "reeb": ["1", "0", "1"],
        }
        path = write_json(tmp_path, "bad.json", doc)
        code, out = run_cli(capsys, "volume-toric", "--input", path)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "GoodnessViolation"

    def test_non_primitive_normal_exit_2(self, capsys, tmp_path):
        doc = sphere_cone_doc([1, 2])
        doc["normals"][0] = [-2, 0]
        path = write_json(tmp_path, "bad2.json", doc)
        code, out = run_cli(capsys, "volume-toric", "--input", path)
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, out = run_cli(capsys, "volume-toric", "--input", "/nonexistent.json")
        assert code == 2

    def test_msy_check(self, capsys, tmp_path):
        path = write_json(tmp_path, "cone.json", sphere_cone_doc([1, 2]))
        code, out = run_cli(capsys, "msy-check", "--input", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["section_volume"] == "1/2"

    def test_lawrence_and_polytope_volume(self, capsys, tmp_path):
        cone = write_json(tmp_path, "cone.json", sphere_cone_doc([1, 1, 1]))
        code, out = run_cli(capsys, "lawrence", "--input", cone, "--json")
        assert code == 0
        assert json.loads(out)["exact"] == "1/2 * pi^0"

        bare = {
            "dim": 3,
            "normals": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
            "reeb": ["1", "1", "1"],
        }
        path = write_json(tmp_path, "poly.json", bare)
        code, out = run_cli(capsys, "polytope-volume", "--input", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == "1/2 * pi^0"
        assert doc["vertex_count"] == 3

    @pytest.mark.parametrize("command", ["volume-toric", "msy-check", "lawrence", "polytope-volume"])
    def test_one_enumeration_per_cone(self, capsys, monkeypatch, tmp_path, command):
        enumerated = []

        def counting(cone):
            enumerated.append(cone)
            return enumerate_vertices(cone)

        # wherever the package binds the function by name
        for name, module in list(sys.modules.items()):
            if name.startswith("abbvloc") and hasattr(module, "enumerate_vertices"):
                monkeypatch.setattr(module, "enumerate_vertices", counting)
        path = write_json(tmp_path, "cube.json", cube_cone_doc(3))
        code, _ = run_cli(capsys, command, "--input", path, "--json")
        assert code == 0
        assert len(enumerated) == 1

    @pytest.mark.parametrize("command, reads", [("volume-toric", 1), ("msy-check", 0),
                                                ("lawrence", 0), ("polytope-volume", 0)])
    def test_weights_built_only_for_orbit_data(self, capsys, monkeypatch, tmp_path,
                                               command, reads):
        """Only volume-toric's orbit-data route builds OrbitDatums, one per
        vertex; the section commands build no orbit data and no weight row."""
        import abbvloc.engine as engine

        built = Counter()
        init = engine.OrbitDatum.__init__

        def counted(datum, *args, **kwargs):
            init(datum, *args, **kwargs)
            built[datum.integer_rows[0]] += 1

        monkeypatch.setattr(engine.OrbitDatum, "__init__", counted)
        path = write_json(tmp_path, "cube.json", cube_cone_doc(3))
        code, _ = run_cli(capsys, command, "--input", path, "--json")
        assert code == 0
        assert sorted(built.values()) == [1] * 8 * reads

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    @pytest.mark.parametrize("command", ["volume-toric", "msy-check", "lawrence", "polytope-volume"])
    def test_goodness_violation_names_the_index(self, capsys, tmp_path, command, index):
        """Cube 3 is good; each cone of NOT_GOOD_CONES exits 2 naming the
        index of the sublattice that its first failing vertex's normals span."""
        facets, doc = ((), cube_cone_doc(3)) if index == 1 else NOT_GOOD_CONES[index]
        code = main([command, "--input", write_json(tmp_path, "cone.json", doc), "--json"])
        out, err = capsys.readouterr()
        assert err == ""
        if index == 1:
            assert code == 0
            return
        assert code == 2
        assert json.loads(out)["error"] == {
            "message": f"facets {facets} span a sublattice of index {index}",
            "type": "GoodnessViolation",
        }

    @pytest.mark.parametrize("basis", [[[1, 2, 0], [0, 1, 0], [-1, 0, 1]],
                                       [[0, 1, 0], [0, 0, -1], [1, 3, 1]]])
    @pytest.mark.parametrize("command", ["volume-toric", "msy-check", "lawrence"])
    def test_unimodular_basis_changes_coordinates_only(self, capsys, tmp_path, basis, command):
        # normals B v and Reeb vector B r over the basis B are the cone of v and r
        doc = cube_cone_doc(2)
        code, expected = run_cli(capsys, command, "--input", write_json(tmp_path, "c.json", doc), "--json")
        doc["normals"] = [input_coordinates(basis, v) for v in doc["normals"]]
        doc["reeb"] = input_coordinates(basis, doc["reeb"])
        doc["lattice_basis"] = basis
        assert run_cli(capsys, command, "--input", write_json(tmp_path, "b.json", doc), "--json") == (
            code, expected)
        assert code == 0

    @pytest.mark.parametrize("basis", [[[1, 1], [0, 1]], [[1, 0], [0, 1]], ((1, 0), (0, 1)),
                                       [["1", "-1"], ["0", "1"]]])
    def test_cone_from_plain_rows_equals_the_loaded_cone(self, basis):
        """A lattice basis given to GoodCone as nested lists or tuples, as
        RootData takes its Weyl representatives."""
        doc = dict(sphere_cone_doc([1, 2]), lattice_basis=[list(row) for row in basis])
        cone = GoodCone(dim=2, normals=doc["normals"], reeb=doc["reeb"], lattice_basis=basis)
        assert cone == _load_cone(doc)
        assert cone.lattice_basis is None

    @pytest.mark.parametrize("command", ["volume-toric", "polytope-volume"])
    def test_vertex_cap_exit_2(self, capsys, tmp_path, command):
        # cube cone 11 has 2048 vertices; the walk stops after MAX_VERTICES + 1
        path = write_json(tmp_path, "cube.json", cube_cone_doc(11))
        code, out = run_cli(capsys, command, "--input", path, "--json")
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == {
            "type": "InputError",
            "message": f"the section has more than MAX_VERTICES = {MAX_VERTICES} vertices",
        }


class TestOrbitSystemCommands:
    def test_localize(self, capsys, tmp_path):
        path = write_json(tmp_path, "sys.json", sphere_system_doc())
        code, out = run_cli(capsys, "localize", "--input", path)
        assert code == 0
        assert "exact: 1 * pi^2" in out

    def test_localize_characteristic_mode(self, capsys, tmp_path):
        path = write_json(tmp_path, "sys.json", sphere_system_doc())
        code, out = run_cli(
            capsys,
            "localize",
            "--input",
            path,
            "--j",
            "1",
            "--leaf-integrals",
            "3,3/2",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["exact"] == "9/2 * pi^0"

    @pytest.mark.parametrize("leaf", ["3,3/2", "garbage"])
    def test_leaf_integrals_without_j_exit_2(self, capsys, tmp_path, leaf):
        path = write_json(tmp_path, "sys.json", sphere_system_doc())
        code, out = run_cli(capsys, "localize", "--input", path, f"--leaf-integrals={leaf}",
                            "--json")
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == {
            "type": "InputError", "message": "--leaf-integrals requires --j",
        }

    def test_check_v_independence_pass(self, capsys, tmp_path):
        path = write_json(tmp_path, "sys.json", sphere_system_doc())
        code, out = run_cli(capsys, "check-v-independence", "--input", path)
        assert code == 0

    def test_check_v_independence_failure_exit_1(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", corrupted_system_doc())
        code, out = run_cli(capsys, "check-v-independence", "--input", path)
        assert code == 1
        assert "[FAIL]" in out

    def test_dh(self, capsys, tmp_path):
        path = write_json(tmp_path, "sys.json", sphere_system_doc())
        code, out = run_cli(capsys, "dh", "--input", path, "--order", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"][0] == "0 * pi^0"
        assert doc["coefficients"][1] == "1 * pi^2"

    def test_malformed_system_exit_2(self, capsys, tmp_path):
        doc = sphere_system_doc()
        del doc["orbits"][0]["moment"]
        path = write_json(tmp_path, "broken.json", doc)
        code, out = run_cli(capsys, "localize", "--input", path)
        assert code == 2


class TestHomogeneousCommands:
    def test_stiefel_spot_value(self, capsys):
        code, out = run_cli(capsys, "stiefel", "--w", "0,0,1")
        assert code == 0
        assert "exact: 2/3 * pi^4" in out

    def test_stiefel_closed_form_generic(self, capsys):
        code, out = run_cli(capsys, "stiefel", "--w", "1,2,5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == "1/756 * pi^4"  # 2/(3*(25-4)*(25-1))
        assert all(c["pass"] for c in doc["checks"])

    def test_stiefel_wall_exit_2(self, capsys):
        code, out = run_cli(capsys, "stiefel", "--w", "1,2,2")
        assert code == 2

    def test_homogeneous_fixture(self, capsys):
        code, out = run_cli(
            capsys, "homogeneous", "--b-prime", "0,0,1", "--samples", "4"
        )
        assert code == 0
        assert "exact: 2/3 * pi^4" in out

    def test_homogeneous_from_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "roots.json", root_data_doc())
        code, out = run_cli(
            capsys, "homogeneous", "--input", path, "--b-prime", "0,0,1", "--json"
        )
        assert code == 0
        assert json.loads(out)["exact"] == "2/3 * pi^4"

    @pytest.mark.parametrize("fixture", ["stiefel-so5-so3", "nonsense"])
    def test_input_and_fixture_exit_2(self, capsys, tmp_path, fixture):
        path = write_json(tmp_path, "roots.json", root_data_doc())
        code, out = run_cli(capsys, "homogeneous", "--input", path, f"--fixture={fixture}",
                            "--b-prime", "1,2,5", "--json")
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == {
            "type": "InputError", "message": "--input and --fixture exclude each other",
        }

    def test_named_fixture_equals_the_default(self, capsys):
        argv = ("homogeneous", "--b-prime", "1,2,5", "--json")
        assert run_cli(capsys, *argv, "--fixture", "stiefel-so5-so3") == run_cli(capsys, *argv)

    def test_weyl_inverses_once_per_root_datum(self, capsys, monkeypatch):
        """One reduction of (w^T | p r_1 ... r_m) per Weyl representative w,
        whatever the number of samples."""
        calls = []
        reduce = abbvloc.homogeneous._reduce

        def counting(rows, n):
            calls.append(tuple(tuple(row[:n]) for row in rows))
            return reduce(rows, n)

        monkeypatch.setattr(abbvloc.homogeneous, "_reduce", counting)
        code, out = run_cli(capsys, "homogeneous", "--b-prime", "1,2,5", "--samples", "10", "--json")
        assert code == 0
        assert json.loads(out)["exact"] == "1/756 * pi^4"
        assert len(calls) == 4
        assert sorted(calls) == sorted(tuple(zip(*w)) for w in stiefel_so5_so3().weyl_reps)


class TestIdentityCommands:
    def test_check_w1(self, capsys):
        code, out = run_cli(
            capsys, "check-w1", "--m", "3", "--trials", "50", "--seed", "7"
        )
        assert code == 0
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_check_w1_checks_every_partition_on_each_drawn_vector(self, capsys, monkeypatch, seed):
        draws, calls = [], []

        def draw(count, rng):
            draws.append(sample_distinct_positive(count, rng))
            return draws[-1]

        def check(m, Js, w):
            calls.append((m, list(Js), w))
            return check_w1_identity(m, Js, w)

        monkeypatch.setattr(abbvloc.cli, "sample_distinct_positive", draw)
        monkeypatch.setattr(abbvloc.cli, "check_w1_identity", check)
        code, out = run_cli(capsys, "check-w1", "--m", "5", "--trials", "7", "--seed", str(seed), "--json")
        assert code == 0
        rng = SplitMix64(seed)
        assert draws == [sample_distinct_positive(6, rng) for _ in range(7)]
        assert len(partitions(5)) == 7
        assert calls == [(5, partitions(5), w) for w in draws]
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["pass"]) for c in checks] == [
            (f"identity for J={list(J)}", True) for J in partitions(5)
        ]

    def test_check_w1_fails_the_one_multiindex_that_fails_on_one_vector(self, capsys, monkeypatch):
        vectors = []

        def check(m, Js, w):
            vectors.append(w)
            verdicts = check_w1_identity(m, Js, w)
            return [ok and not (J == (2, 3) and len(vectors) == 4) for J, ok in zip(Js, verdicts)]

        monkeypatch.setattr(abbvloc.cli, "check_w1_identity", check)
        code, out = run_cli(capsys, "check-w1", "--m", "5", "--trials", "7", "--seed", "3", "--json")
        assert code == 1
        assert len(vectors) == 7
        report = json.loads(out)
        assert report["exact"] == "0 * pi^0"
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["identity for J=[2, 3]"]

    def test_secondary(self, capsys):
        code, out = run_cli(capsys, "secondary", "--weights", "1,2", "--j", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == "9/2 * pi^0"


# the subcommands that read --samples
SAMPLED_COMMANDS = [
    ("volume-sphere", "--weights", "1,2"),
    ("volume-toric", "--input", "@cone"),
    ("localize", "--input", "@system"),
    ("homogeneous", "--b-prime", "1,2,5"),
    ("secondary", "--weights", "1,2", "--j", "1"),
    ("check-v-independence", "--input", "@system"),
]


def sampled_argv(tmp_path, argv) -> list:
    """argv with @cone and @system replaced by paths to such documents."""
    paths = {
        "@cone": write_json(tmp_path, "c.json", sphere_cone_doc([1, 2])),
        "@system": write_json(tmp_path, "s.json", sphere_system_doc()),
    }
    return [paths.get(a, a) for a in argv]


class TestExitContract:
    @pytest.mark.parametrize(
        "case",
        [
            "top-level-array",
            "top-level-number",
            "zero-denominator-reeb",
            "zero-denominator-orbit-length",
            "secondary-j-0",
            "localize-j-0",
            "check-w1-m-14",
        ],
    )
    def test_former_tracebacks_exit_2(self, capsys, tmp_path, case):
        cone = sphere_cone_doc([1, 2])
        system = sphere_system_doc()
        if case == "top-level-array":
            argv = ("volume-toric", "--input", write_json(tmp_path, "a.json", [cone]))
        elif case == "top-level-number":
            argv = ("polytope-volume", "--input", write_json(tmp_path, "n.json", 5))
        elif case == "zero-denominator-reeb":
            cone["reeb"] = ["1/0", "2"]
            argv = ("volume-toric", "--input", write_json(tmp_path, "z.json", cone))
        elif case == "zero-denominator-orbit-length":
            system["orbits"][0]["length"]["coeff"] = "1/0"
            argv = ("localize", "--input", write_json(tmp_path, "z.json", system))
        elif case == "secondary-j-0":
            argv = ("secondary", "--weights", "1,2", "--j", "0")
        elif case == "localize-j-0":
            path = write_json(tmp_path, "s.json", system)
            argv = ("localize", "--input", path, "--j", "0", "--leaf-integrals", "3,3/2")
        else:
            argv = ("check-w1", "--m", "14")
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "InputError"

    def test_volume_toric_pole_on_the_second_route_exits_1(self, capsys, monkeypatch, tmp_path):
        """A pole of toric_volume at a sample the orbit route accepted is a
        disagreement of the routes: the two-route check fails, exit 1."""
        def pole(cone, v):
            raise PoleAtSample(f"det(b, ..., v, ...) vanishes at v={tuple(v)}")

        monkeypatch.setattr(abbvloc.cli, "toric_volume", pole)
        path = write_json(tmp_path, "cone.json", sphere_cone_doc([1, 2, 5]))
        code, out = run_cli(capsys, "volume-toric", "--input", path, "--json", "--seed", "42")
        assert code == 1
        independence, two_route = json.loads(out)["checks"]
        assert independence["pass"] and not two_route["pass"]
        assert two_route["detail"].startswith("1 samples compared: the determinant formula "
                                              "has a pole, det(b, ..., v, ...) vanishes at v=")

    def test_stiefel_pole_on_the_root_data_route_exits_1(self, capsys, monkeypatch):
        """A pole of homogeneous_volume at the four-sum's sample is a
        disagreement of the routes: the engine check fails, exit 1."""
        def pole(rd, b_prime, v):
            raise PoleAtSample("a root vanishes")

        monkeypatch.setattr(abbvloc.cli, "homogeneous_volume", pole)
        code, out = run_cli(capsys, "stiefel", "--w", "1,2,5", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["exact"] == "1/756 * pi^4"
        closed, independence, engine = report["checks"]
        assert closed["pass"] and independence["pass"]
        assert engine == {"name": "root-data engine match", "pass": False,
                          "detail": "engine pole: a root vanishes"}

    def test_check_w1_zero_trials_exit_2(self, capsys):
        code, out = run_cli(capsys, "check-w1", "--m", "3", "--trials", "0")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InputError"

    @pytest.mark.parametrize("reeb", ["12", {"1": "1", "2": "2"}], ids=["string", "object"])
    def test_non_array_vector_exit_2(self, capsys, tmp_path, reeb):
        cone = sphere_cone_doc([1, 2])
        cone["reeb"] = reeb
        path = write_json(tmp_path, "c.json", cone)
        code, out = run_cli(capsys, "volume-toric", "--input", path, "--json")
        assert code == 2
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "InputError"
        assert "expected a JSON array" in error["message"]

    @pytest.mark.parametrize(
        "field, value", [("reeb", [True, "2"]), ("normals", [[-1, False], [0, -1]])]
    )
    def test_boolean_entry_exit_2(self, capsys, tmp_path, field, value):
        cone = sphere_cone_doc([1, 2])
        cone[field] = value
        path = write_json(tmp_path, "c.json", cone)
        code, out = run_cli(capsys, "volume-toric", "--input", path, "--json")
        assert code == 2
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "InputError"
        assert "as an exact rational" in error["message"]

    @pytest.mark.parametrize("row", ["10", {"0": 1, "1": 0}], ids=["string", "object"])
    @pytest.mark.parametrize("target", ["lattice_basis", "weyl_reps"])
    def test_non_array_matrix_row_exit_2(self, capsys, tmp_path, target, row):
        if target == "lattice_basis":
            doc = sphere_cone_doc([1, 2])
            doc["lattice_basis"] = [row, "01" if isinstance(row, str) else {"0": 0, "1": 1}]
            argv = ("volume-toric", "--input", write_json(tmp_path, "c.json", doc))
        else:
            doc = root_data_doc()
            doc["weyl_reps"][1][0] = row
            path = write_json(tmp_path, "r.json", doc)
            argv = ("homogeneous", "--input", path, "--b-prime", "0,0,1")
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 2
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "InputError"
        assert "expected a JSON array, got " + type(row).__name__ in error["message"]

    def test_non_array_matrix_exit_2(self, capsys, tmp_path):
        doc = sphere_cone_doc([1, 2])
        doc["lattice_basis"] = "1001"
        path = write_json(tmp_path, "c.json", doc)
        code, out = run_cli(capsys, "volume-toric", "--input", path, "--json")
        assert code == 2
        assert "expected a JSON array of rows, got str" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("order", ["-3", "0", "1"])
    def test_dh_order_below_codimension_exit_2(self, capsys, tmp_path, order):
        path = write_json(tmp_path, "s.json", weighted_sphere_system_doc([1, 2, 3]))
        code, out = run_cli(capsys, "dh", "--input", path, "--order", order, "--json")
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"] == {
            "type": "InputError",
            "message": f"--order must be at least the complex codimension 2, got {order}",
        }

    def test_dh_order_at_codimension_runs_both_checks(self, capsys, tmp_path):
        path = write_json(tmp_path, "s.json", weighted_sphere_system_doc([1, 2, 3]))
        code, out = run_cli(capsys, "dh", "--input", path, "--order", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [c["name"] for c in doc["checks"]] == [
            "coefficients below codim vanish",
            "order-n coefficient equals localized volume",
        ]
        assert doc["exact"] == "1/6 * pi^3"  # 2 pi^3 / (2! * 1 * 2 * 3)

    @pytest.mark.parametrize("argv", SAMPLED_COMMANDS)
    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_fewer_than_two_samples_exit_2(self, capsys, tmp_path, argv, samples):
        code, out = run_cli(capsys, *sampled_argv(tmp_path, argv), "--samples", samples)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InputError", "message": "need at least 2 samples"
        }

    @pytest.mark.parametrize("argv", SAMPLED_COMMANDS)
    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**12])
    def test_samples_above_the_cap_exit_2(self, capsys, tmp_path, argv, samples):
        code, out = run_cli(capsys, *sampled_argv(tmp_path, argv), "--samples", str(samples), "--json")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InputError", "message": f"--samples must be at most {MAX_SAMPLES}, got {samples}"
        }

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**12])
    def test_trials_above_the_cap_exit_2(self, capsys, trials):
        code, out = run_cli(capsys, "check-w1", "--m", "3", "--trials", str(trials), "--json")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InputError", "message": f"--trials must be at most {MAX_TRIALS}, got {trials}"
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("lawrence", "--input", "cone.json"),
            ("polytope-volume", "--input", "cone.json"),
            ("msy-check", "--input", "cone.json"),
            ("dh", "--input", "system.json"),
            ("stiefel", "--w", "1,2,5"),
            ("check-w1", "--m", "3"),
        ],
    )
    def test_samples_only_where_it_is_read(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--samples", "4"])
        assert info.value.code == 2
        assert "--samples" in capsys.readouterr().err

    def test_localize_j_failure_names_first_disagreeing_pair(self, capsys, tmp_path):
        doc = weighted_sphere_system_doc([1, 2, 3])
        doc["orbits"] = doc["orbits"][:2]
        path = write_json(tmp_path, "bad.json", doc)
        code, out = run_cli(
            capsys, "localize", "--input", path, "--j", "1", "--leaf-integrals", "1,2", "--json"
        )
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert not check["pass"]
        assert check["detail"].startswith("value PiScalar(")
        assert " != value " in check["detail"]

    @staticmethod
    def _integer_field_argv(tmp_path, field, value):
        """The (1, 2) sphere as a cone (dim, pi_scale_exponent) or as an
        orbit system (dim_t, codim_half, pi_power), with ``field`` set."""
        if field in ("dim", "pi_scale_exponent"):
            doc = sphere_cone_doc([1, 2])
            doc[field] = value
            return ("volume-toric", "--input", write_json(tmp_path, "c.json", doc))
        doc = sphere_system_doc()
        if field == "pi_power":
            for orbit in doc["orbits"]:
                orbit["length"]["pi_power"] = value
        else:
            doc[field] = value
        return ("localize", "--input", write_json(tmp_path, "s.json", doc))

    @pytest.mark.parametrize(
        "value", [1.5, 1.0, True, "3/2", "1.5"],
        ids=["float", "integral-float", "bool", "fraction-string", "decimal-string"],
    )
    @pytest.mark.parametrize("field", ["dim", "pi_scale_exponent", "dim_t", "codim_half", "pi_power"])
    def test_non_integer_integer_field_exit_2(self, capsys, tmp_path, field, value):
        argv = self._integer_field_argv(tmp_path, field, value)
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 2
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "InputError"
        expected = "expected an integer" if isinstance(value, str) else "as an exact rational"
        assert expected in error["message"]

    @pytest.mark.parametrize(
        "field, value",
        [("dim", 2), ("dim", "2"), ("pi_scale_exponent", "1"), ("dim_t", "2"),
         ("codim_half", "1"), ("pi_power", "1"), ("pi_power", " 1 ")],
    )
    def test_integer_field_as_int_or_string(self, capsys, tmp_path, field, value):
        argv = self._integer_field_argv(tmp_path, field, value)
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["exact"] == "1 * pi^2"

    @pytest.mark.parametrize("pi_power", [200000, -200000, 3, -3])
    def test_pi_power_beyond_dim_t_exit_2(self, capsys, tmp_path, pi_power):
        argv = self._integer_field_argv(tmp_path, "pi_power", pi_power)
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InputError",
            "message": f"orbit length pi_power {pi_power} is out of range: "
                       "|pi_power| must be at most dim_t = 2",
        }

    @pytest.mark.parametrize("pi_power, exact", [(2, "1 * pi^3"), (-2, "1 * pi^-1"), (0, "1 * pi^1")])
    def test_pi_power_within_dim_t(self, capsys, tmp_path, pi_power, exact):
        argv = self._integer_field_argv(tmp_path, "pi_power", pi_power)
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out)["exact"] == exact

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"dim": 2, "normals": [[-1, 0], [0, -1]], "reeb": ["-1", "2"]},
                "the edge that leaves facet 0 at vertex (0, 1/2) has no second vertex",
            ),
            (
                {"dim": 2, "normals": [[-1, 0], [-1, -1]], "reeb": ["1", "0"]},
                "the edge that leaves facet 1 at vertex (1, -1) has no second vertex",
            ),
        ],
        ids=["negative-reeb-sphere", "unbounded-cone"],
    )
    def test_unbounded_section_message(self, capsys, tmp_path, doc, message):
        path = write_json(tmp_path, "c.json", doc)
        code, out = run_cli(capsys, "volume-toric", "--input", path, "--json")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "UnboundedSection"
        assert error["message"] == "the section is unbounded: " + message
        assert "Fraction(" not in error["message"]

    @pytest.mark.parametrize("command", ["lawrence", "polytope-volume"])
    def test_unbounded_bare_polytope_exit_2(self, capsys, tmp_path, command):
        # the strip 0 <= phi_0 <= 1, phi_1 >= 0 at phi_2 = 1: two vertices, one ray
        doc = {"dim": 3, "normals": [[-1, 0, 0], [0, -1, 0], [1, 0, -1]], "reeb": ["0", "0", "1"]}
        code, out = run_cli(capsys, command, "--input", write_json(tmp_path, "p.json", doc), "--json")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "UnboundedSection",
            "message": "the section is unbounded: the edge that leaves facet 1 at vertex "
                       "(0, 0, 1) has no second vertex",
        }

    @pytest.mark.parametrize("command", ["lawrence", "polytope-volume"])
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"dim": 1, "normals": [], "reeb": ["1"]},
             "the Reeb vector must have at least 2 entries"),
            ({"dim": 1, "normals": [[-1]], "reeb": ["2"]},
             "the Reeb vector must have at least 2 entries"),
            ({"dim": 7, "normals": [[-1, 0], [0, -1]], "reeb": ["1", "2"]},
             "dim is 7 but the Reeb vector has 2 entries"),
            ({"normals": [[-1, 0], [0, -1]], "reeb": ["1", "2"]},
             "malformed polytope document: 'dim'"),
            ({"dim": "2/3", "normals": [[-1, 0], [0, -1]], "reeb": ["1", "2"]},
             "malformed polytope document: expected an integer, got '2/3'"),
        ],
        ids=["point-no-normals", "point-one-normal", "dim-mismatch", "no-dim", "fractional-dim"],
    )
    def test_bare_polytope_dimension_exit_2(self, capsys, tmp_path, command, doc, message):
        # a one-entry Reeb vector's section is a point, whose volume the two
        # routes would give as 0 and 1; the dim field must match the Reeb vector
        code, out = run_cli(capsys, command, "--input", write_json(tmp_path, "p.json", doc), "--json")
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InputError", "message": message}

    @pytest.mark.parametrize("command", ["lawrence", "polytope-volume"])
    @pytest.mark.parametrize(
        "normals, message",
        [
            ([[-1, 0, 0], [0, -1, 0], [0, 0, 0], [0, 0, -1]], "normal 2 is zero"),
            ([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-2, 0, 0]],
             "normals 0 and 3 have one primitive row (-1, 0, 0)"),
            ([[0, -1, 0], ["-1/2", 0, 0], [0, 0, -1], [0, "-3/4", 0]],
             "normals 0 and 3 have one primitive row (0, -1, 0)"),
        ],
        ids=["zero", "repeated", "repeated-rational"],
    )
    def test_bare_polytope_zero_or_repeated_normal_exit_2(self, capsys, tmp_path, command,
                                                           normals, message):
        # the walk would meet such a normal at a vertex on more than n facets
        # and blame the vertex (NotSimpleVertex); the document names the normals
        doc = {"dim": 3, "normals": normals, "reeb": ["1", "1", "1"]}
        code, out = run_cli(capsys, command, "--input", write_json(tmp_path, "p.json", doc), "--json")
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InputError", "message": message}

    @pytest.mark.parametrize(
        "command, cone, message",
        [
            ("volume-toric", True, "vertex (1, 1, 1) lies on facets (0, 2, 4), more than 2"),
            ("polytope-volume", False, "vertex (1, 1, 1) lies on facets (0, 2, 4), more than 2"),
        ],
    )
    def test_not_simple_vertex_message(self, capsys, tmp_path, command, cone, message):
        # the square-with-diagonal cone of test_toric's test_not_simple_vertex;
        # without pi_scale_exponent the document is a bare polytope, which the
        # same walk refuses with the same message
        doc = {"dim": 3, "normals": [[1, 0, -1], [-1, 0, -1], [0, 1, -1], [0, -1, -1], [1, 1, -2]],
               "reeb": ["0", "0", "1"]}
        if cone:
            doc["pi_scale_exponent"] = 1
        code, out = run_cli(capsys, command, "--input", write_json(tmp_path, "c.json", doc), "--json")
        assert code == 2
        assert json.loads(out)["error"] == {"type": "NotSimpleVertex", "message": message}

    def test_json_integer_over_4300_digits_exit_2(self, capsys, tmp_path):
        text = json.dumps(sphere_system_doc()).replace('"pi_power": 1', '"pi_power": ' + "9" * 5001)
        path = tmp_path / "s.json"
        path.write_text(text)
        code, out = run_cli(capsys, "localize", "--input", str(path), "--json")
        assert code == 2
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["type"] == "InputError"

    def test_dh_order_bound(self, capsys, tmp_path):
        path = write_json(tmp_path, "s.json", sphere_system_doc())
        code, out = run_cli(capsys, "dh", "--input", path, "--order", str(DH_MAX_ORDER), "--json")
        assert code == 0
        assert len(json.loads(out)["coefficients"]) == DH_MAX_ORDER + 1
        code, out = run_cli(capsys, "dh", "--input", path, "--order", str(DH_MAX_ORDER + 1), "--json")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InputError",
            "message": f"--order must be at most {DH_MAX_ORDER}, got {DH_MAX_ORDER + 1}",
        }

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer string-conversion limit in this Python")
    def test_dh_coefficient_too_long_to_print_exit_2(self, capsys, tmp_path):
        doc = weighted_sphere_system_doc(["1", "2", "3", "5", "7", "1/2", "1/3", "11"])
        path = write_json(tmp_path, "s.json", doc)
        code, out = run_cli(capsys, "dh", "--input", path, "--order", str(DH_MAX_ORDER), "--json")
        assert code == 2
        assert out.count("\n") == 1
        error = json.loads(out)["error"]
        assert error["type"] == "InputError"
        assert error["message"].startswith("the exact value is too large to print")


COMMANDS = ["volume-sphere", "volume-toric", "lawrence", "polytope-volume", "msy-check",
            "localize", "dh", "stiefel", "homogeneous", "check-w1", "secondary",
            "check-v-independence"]
UNSAMPLED_COMMANDS = ["lawrence", "polytope-volume", "msy-check", "dh", "stiefel", "check-w1"]
# argv on which argparse prints help or an error and exits
PARSER_EXITS = (
    [[command, *tail] for command in COMMANDS
     for tail in (["-h"], [], ["--seed", "x"], ["--bogus"])]
    + [[command, "--samples", "4"] for command in UNSAMPLED_COMMANDS]
    + [[], ["-h"], ["nope"], ["--json"], ["stiefel", "--w", "-1,2,5"],
       ["volume-toric", "--input", "x", "--bogus"]]
)


def exit_outcome(capsys, call, argv) -> tuple:
    """(exit code, stdout, stderr) of call(argv), which must exit."""
    with pytest.raises(SystemExit) as info:
        call(argv)
    out, err = capsys.readouterr()
    return info.value.code, out, err


class TestArgumentParsing:
    @pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
    def test_main_prints_what_the_full_parser_prints(self, capsys, argv):
        want = exit_outcome(capsys, lambda a: _build_parser().parse_args(a), argv)
        assert exit_outcome(capsys, main, argv) == want

    def test_a_job_builds_only_its_own_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        code, _ = run_cli(capsys, "stiefel", "--w", "1,2,5", "--json")
        assert code == 0
        assert built == ["abbvloc stiefel"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_help_is_the_full_parsers_subparser_help(self, capsys, command):
        (subparsers,) = [action for action in _build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        want = subparsers.choices[command].format_help()
        assert exit_outcome(capsys, main, [command, "--help"]) == (0, want, "")

    def test_each_handler_is_named_after_its_command(self):
        """check-v-independence is localize without --j, and shares its handler."""
        assert list(_COMMANDS) == COMMANDS
        for name, (handler, *_) in _COMMANDS.items():
            own = "localize" if name == "check-v-independence" else name
            assert handler.__name__ == "_cmd_" + own.replace("-", "_")


# valid options for each subcommand; {cone} and {system} are document paths
VALID_OPTIONS = {
    "volume-sphere": ["--weights=1,2"],
    "volume-toric": ["--input={cone}"],
    "lawrence": ["--input={cone}"],
    "polytope-volume": ["--input={cone}"],
    "msy-check": ["--input={cone}"],
    "localize": ["--input={system}", "--j=1", "--leaf-integrals=1,2"],
    "dh": ["--input={system}"],
    "stiefel": ["--w=1,2,5"],
    "homogeneous": ["--b-prime=1,2,5"],
    "check-w1": ["--m=1"],
    "secondary": ["--weights=1,2", "--j=1"],
    "check-v-independence": ["--input={system}"],
}


def dash_cases() -> list:
    """(command, flag, whether the flag takes an int) for every option of
    every subcommand but --json."""
    cases = []
    for command, (_, _, samples, arguments) in _COMMANDS.items():
        cases += [(command, "--seed", True)] + [(command, "--samples", True)] * samples
        cases += [(command, flag, options.get("type") is int) for flag, options in arguments]
    return cases


def cli_outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestDashValue:
    """``--option=--`` reads as on Python 3.13 on every Python: argparse
    3.10-3.12 drop the ``--``, and the handler used to get an empty list."""

    @pytest.mark.parametrize("command, flag, typed", dash_cases(), ids=str)
    def test_exits_2_without_a_traceback(self, capsys, tmp_path, monkeypatch, command, flag, typed):
        monkeypatch.chdir(tmp_path)  # no file named "--"
        paths = {"cone": write_json(tmp_path, "cone.json", sphere_cone_doc([1, 2])),
                 "system": write_json(tmp_path, "system.json", sphere_system_doc())}
        valid = [option.format(**paths) for option in VALID_OPTIONS[command]]
        assert cli_outcome(capsys, [command, *valid, "--json"])[0] == 0
        others = [option for option in valid if not option.startswith(flag + "=")]
        code, out, err = cli_outcome(capsys, [command, *others, f"{flag}=--", "--json"])
        assert code == 2
        if typed:
            assert out == ""
            assert err.endswith(f"abbvloc {command}: error: argument {flag}: invalid int value: '--'\n")
        else:
            assert err == ""
            assert out.count("\n") == 1
            assert json.loads(out)["error"]["type"] == "InputError"

    def test_every_option_is_covered(self):
        assert sorted(VALID_OPTIONS) == sorted(_COMMANDS)
        assert len(dash_cases()) == 12 + 6 + 19  # --seed, --samples, the commands' own


REEB_ENTRIES = ["0", "1", "-1", "2", "3", "1/2", "-3/2", "5/2"]


@st.composite
def lattice_bases(draw, d):
    """A ``lattice_basis`` for a cone document of dimension d.  Most are
    unimodular (a unitriangular matrix with signed, permuted rows), so the
    cone stays valid; the rest are diagonal, singular (a repeated or zero
    row), rational (one entry a fraction) or of the wrong shape."""
    kind = draw(st.sampled_from(["unimodular"] * 5 + ["diagonal", "singular", "rational", "shape"]))
    if kind == "shape":
        rows, cols = draw(st.sampled_from([(d, d + 1), (d + 1, d), (d - 1, d), (0, 0)]))
        return [draw(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)) for _ in range(rows)]
    if kind == "diagonal":
        return [[draw(st.sampled_from([1, -1, 2, 3])) if i == j else 0 for j in range(d)]
                for i in range(d)]
    upper = [[int(i == j) if j <= i else draw(st.integers(-2, 2)) for j in range(d)]
             for i in range(d)]
    basis = [[draw(st.sampled_from([1, -1])) * x for x in upper[i]]
             for i in draw(st.permutations(range(d)))]
    if kind == "singular":
        i = draw(st.integers(0, d - 1))
        basis[i] = [0] * d if d == 1 or draw(st.booleans()) else list(basis[i - 1])
    elif kind == "rational":
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        basis[i][j] = draw(st.sampled_from(["1/2", "-1/3", "3/2"]))
    return basis


@st.composite
def lattice_cones(draw, d):
    """The normals, Reeb vector and ``lattice_basis`` B of a cone document
    of dimension d.  In lattice coordinates the cone is the orthant with a
    positive Reeb vector r, sometimes cut by one more small normal, so its
    section is mostly a simplex.  Three times in four, a square B gets the
    normals and Reeb vector in input coordinates, B v and B r, which a
    nonsingular B maps back to the drawn ones."""
    normals = [[-int(i == j) for j in range(d)] for i in range(d)]
    if draw(st.integers(0, 2)) == 0:
        normals.append(draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    reeb = draw(st.lists(st.sampled_from(["1", "2", "3", "1/2", "5/2"]), min_size=d, max_size=d))
    basis = draw(lattice_bases(d))
    if len(basis) == d and all(len(row) == d for row in basis) and draw(st.integers(0, 3)):
        normals = [input_coordinates(basis, v) for v in normals]
        reeb = input_coordinates(basis, reeb)
    return {"normals": normals, "reeb": reeb, "lattice_basis": basis}


@st.composite
def section_documents(draw):
    """Cone documents (with pi_scale_exponent) and bare polytope documents
    (without) of dimension 1..4: small integer normals, some zero, some not
    primitive, some duplicated, and Reeb entries that may be rational, zero
    or negative.  Half of them start from the orthant's normals -e_i, so
    that bounded sections are common.  Half of the cone documents of
    dimension 2..4 take their normals, Reeb vector and lattice_basis from
    ``lattice_cones`` instead."""
    d = draw(st.integers(1, 4))
    normals = [[-int(i == j) for j in range(d)] for i in range(d)] if draw(st.booleans()) else []
    normals += draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), max_size=d + 3))
    if normals and draw(st.booleans()):
        normals.append(list(draw(st.sampled_from(normals))))
    doc = {
        "dim": d,
        "normals": normals,
        "reeb": draw(st.lists(st.sampled_from(REEB_ENTRIES), min_size=d, max_size=d)),
    }
    if draw(st.booleans()):
        doc["pi_scale_exponent"] = draw(st.sampled_from([0, 1]))
        if d > 1 and draw(st.booleans()):
            doc.update(draw(lattice_cones(d)))
    return doc


SYSTEM_ENTRIES = ["0", "1", "-1", "2", "1/2", "-3/2", "1/" + "7" * 60, "3" * 80 + "/11"]


@st.composite
def orbit_system_documents(draw):
    """Orbit-system documents: a weighted sphere's orbit data with some of
    its entries replaced (zero rows, huge denominators, rows of the wrong
    length, pi_powers in and out of range, a wrong dim_t or codim_half,
    orbits dropped or repeated), or small random documents of dimension
    1..3."""
    if draw(st.booleans()):
        d = draw(st.integers(2, 4))
        doc = weighted_sphere_system_doc(draw(st.lists(
            st.sampled_from(["1", "2", "3", "5", "1/2", "7/3"]), min_size=d, max_size=d, unique=True)))
        for _ in range(draw(st.integers(0, 3))):
            orbit = draw(st.sampled_from(doc["orbits"]))
            rows = [r for r in (orbit["moment"], *orbit["weights"]) if r]
            if not rows:
                break
            row = draw(st.sampled_from(rows))
            kind = draw(st.sampled_from(["zero", "entry", "short", "long", "pi", "dim", "codim", "orbits"]))
            if kind == "zero":
                row[:] = ["0"] * len(row)
            elif kind == "entry":
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(SYSTEM_ENTRIES))
            elif kind == "short":
                row.pop()
            elif kind == "long":
                row.append(draw(st.sampled_from(SYSTEM_ENTRIES)))
            elif kind == "pi":
                orbit["length"]["pi_power"] = draw(st.integers(-6, 6))
            elif kind in ("dim", "codim"):
                doc["dim_t" if kind == "dim" else "codim_half"] = draw(st.integers(-1, 5))
            else:
                doc["orbits"] = draw(st.lists(st.sampled_from(doc["orbits"]), min_size=1, max_size=5))
        return doc
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 2))
    row = st.lists(st.sampled_from(SYSTEM_ENTRIES), min_size=d, max_size=d)
    orbit = st.fixed_dictionaries({
        "length": st.fixed_dictionaries({"coeff": st.sampled_from(SYSTEM_ENTRIES),
                                         "pi_power": st.integers(-4, 4)}),
        "moment": row,
        "weights": st.lists(row, min_size=n, max_size=n),
    })
    return {"dim_t": d, "b": draw(row), "codim_half": n, "orbits": draw(st.lists(orbit, max_size=3))}


ROOT_ENTRIES = ["0", "1", "-1", "2", "1/2", "-3/2", 0, 1, -1]


@st.composite
def root_data_documents(draw):
    """Root data documents: the Stiefel root datum with some entries
    replaced (a Weyl representative made singular, rational or of the
    wrong shape, a root or b or p changed, dim_t changed, Weyl
    representatives dropped or repeated), or small random documents of
    dimension 1..3."""
    if draw(st.booleans()):
        doc = root_data_doc()
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["singular", "entry", "shape", "root", "b", "p", "dim", "reps"]))
            w = draw(st.sampled_from(doc["weyl_reps"])) if doc["weyl_reps"] else None
            if kind == "singular" and w:
                w[draw(st.integers(0, len(w) - 1))] = list(draw(st.sampled_from(w)))
            elif kind == "entry" and w and w[0]:
                row = draw(st.sampled_from(w))
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ROOT_ENTRIES))
            elif kind == "shape" and w:
                if draw(st.booleans()):
                    w.pop()
                else:
                    w[0].append("1")
            elif kind == "root" and doc["roots"]:
                row = draw(st.sampled_from(doc["roots"]))
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ROOT_ENTRIES))
            elif kind in ("b", "p"):
                doc[kind][draw(st.integers(0, 2))] = draw(st.sampled_from(ROOT_ENTRIES))
            elif kind == "dim":
                doc["dim_t"] = draw(st.integers(-1, 4))
            elif kind == "reps" and doc["weyl_reps"]:
                doc["weyl_reps"] = draw(st.lists(st.sampled_from(doc["weyl_reps"]), max_size=5))
        return doc
    d = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(ROOT_ENTRIES), min_size=d, max_size=d)
    return {
        "dim_t": d,
        "roots": draw(st.lists(row, max_size=3)),
        "weyl_reps": draw(st.lists(st.lists(row, min_size=d, max_size=d), max_size=3)),
        "b": draw(row),
        "p": draw(row),
    }


def vacuous_root_data(doc) -> bool:
    """No Weyl representative, no root, or a root proportional to p (the
    zero root included): the localized sum has no v in it, or a weight
    that vanishes identically."""
    p = [Fraction(x) for x in doc["p"]]

    def proportional(r):
        r = [Fraction(x) for x in r]
        return all(a * q == b * c for a, c in zip(r, p) for b, q in zip(r, p))

    return not doc["weyl_reps"] or not doc["roots"] or any(map(proportional, doc["roots"]))


WEIGHT_TOKENS = ["1", "2", "3", "5", "1/2", "7/3", "0", "-1", "1/0", "x", "", " 5 ", "1.5", "1e3",
                 "2", "1/" + "9" * 80, "7" * 5000]
INDEX_TOKENS = ["1", "2", "3", "0", "-1", "x", "", "1.5", "100"]


def option_lists(tokens):
    """A comma-separated option value: listed tokens, or short free text."""
    listed = st.lists(st.sampled_from(tokens), max_size=6).map(",".join)
    return st.one_of(listed, st.text(alphabet="0123456789/-,. ex", max_size=8))


class TestLoaderFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=section_documents())
    @example(doc={"dim": 1, "normals": [], "reeb": ["1"]})
    @example(doc={"dim": 2, "normals": [[-1, 0], [0, -1]], "reeb": ["1", "1"],
                  "pi_scale_exponent": 1, "lattice_basis": [[1, 1], [0, 1]]})
    def test_exit_contract(self, capsys, tmp_path, doc):
        # a valid section passes every cross-check: no document exits 1
        path = write_json(tmp_path, "doc.json", doc)
        for command in ("volume-toric", "msy-check", "lawrence", "polytope-volume"):
            code, out = run_cli(capsys, command, "--input", path, "--json")
            assert code in (0, 2)
            assert out.count("\n") == 1
            json.loads(out)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=orbit_system_documents())
    def test_orbit_system_exit_contract(self, capsys, tmp_path, doc):
        path = write_json(tmp_path, "doc.json", doc)
        for argv in (("localize",), ("dh",), ("check-v-independence",),
                     ("localize", "--j", "1", "--leaf-integrals", "1,2,3")):
            code, out = run_cli(capsys, *argv, "--input", path, "--json")
            assert code in (0, 1, 2)
            assert out.count("\n") == 1
            json.loads(out)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=root_data_documents(), b_prime=st.sampled_from(["0,0,1", "1,2,5", "1/2,1,3", "0,0,0", "1,2"]))
    @example(doc=dict(root_data_doc(), roots=[]), b_prime="1,2,5")
    @example(doc=dict(root_data_doc(), roots=[["1", "0", "0"], ["-2", "0", "2"]]), b_prime="1,2,5")
    def test_root_data_exit_contract(self, capsys, tmp_path, doc, b_prime):
        path = write_json(tmp_path, "doc.json", doc)
        code, out = run_cli(capsys, "homogeneous", "--input", path, "--b-prime", b_prime,
                            "--samples", "4", "--json")
        assert code in (0, 1, 2)
        assert out.count("\n") == 1
        report = json.loads(out)
        if vacuous_root_data(doc):
            # refused on its data, not after a draw budget of poles
            assert code == 2
            assert report["error"]["type"] != "AllSamplesPoles"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(weights=option_lists(WEIGHT_TOKENS), j=option_lists(INDEX_TOKENS),
           m=st.integers(-3, 16), trials=st.one_of(st.integers(-2, 2), st.just(MAX_TRIALS + 1)))
    def test_option_exit_contract(self, capsys, weights, j, m, trials):
        ones = ",".join(["1"] * weights.count(","))  # degree m when every token is a weight
        for argv in (("volume-sphere", f"--weights={weights}"),
                     ("secondary", f"--weights={weights}", f"--j={j}"),
                     ("secondary", f"--weights={weights}", f"--j={ones}"),
                     ("check-w1", f"--m={m}", f"--trials={trials}")):
            code, out = run_cli(capsys, *argv, "--json")
            assert code in (0, 1, 2)
            assert out.count("\n") == 1
            json.loads(out)


LITERAL_TOKENS = [0, 1, -1, 2, "1/2", " 1/2 ", "2/4", "-0", True, 1.5, "1/0", "x"]


def literal_slots(doc) -> list:
    """(container, key) of every rational literal of an orbit-system
    document, in the order the loader reads them: each orbit's length
    coefficient, moment and weights, then b."""
    slots = []
    for orbit in doc["orbits"]:
        slots.append((orbit["length"], "coeff"))
        for row in (orbit["moment"], *orbit["weights"]):
            slots += [(row, i) for i in range(len(row))]
    return slots + [(doc["b"], i) for i in range(len(doc["b"]))]


@st.composite
def respelled_system_documents(draw):
    """A weighted sphere's orbit-system document with its literals spelled
    other ways with the same values (JSON integers, padded, unreduced,
    "-0"), and up to three of them replaced by LITERAL_TOKENS."""
    d = draw(st.integers(2, 4))
    doc = weighted_sphere_system_doc(draw(st.lists(
        st.sampled_from(["1", "2", "3", "1/2", "7/3"]), min_size=d, max_size=d, unique=True)))
    slots = literal_slots(doc)
    for container, key in slots:
        text = container[key]
        q, k = Fraction(text), draw(st.integers(2, 3))
        container[key] = draw(st.sampled_from([
            text,
            q.numerator if q.denominator == 1 else text,
            f" {text} ",
            f"{k * q.numerator}/{k * q.denominator}",
            "-0" if q == 0 else text,
        ]))
    for _ in range(draw(st.integers(0, 3))):
        container, key = draw(st.sampled_from(slots))
        container[key] = draw(st.sampled_from(LITERAL_TOKENS))
    return doc


def entrywise_system(doc):
    """The orbit system of a document shaped like a sphere's, read literal by
    literal with ``rat`` and validated by Covector pairings, or the message
    the loader must raise: the first literal ``rat`` refuses, in the loader's
    order, else the first invariant that fails."""
    for container, key in literal_slots(doc):
        try:
            rat(container[key])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            return f"malformed orbit system document: {exc}"
    b = Vector(doc["b"])
    orbits = tuple(
        orbit_datum(PiScalar(rat(o["length"]["coeff"]), o["length"]["pi_power"]),
                    o["moment"], o["weights"])
        for o in doc["orbits"]
    )
    for k, orbit in enumerate(orbits):
        if orbit.moment(b) != 1:
            return f"orbit {k}: moment must pair to 1 with the Reeb vector"
        for j, alpha in enumerate(orbit.weights):
            if not any(alpha):
                return f"orbit {k}: weight {j} is identically zero"
            if alpha(b) != 0:
                return f"orbit {k}: weight {j} does not annihilate the Reeb vector"
    return OrbitSystem(dim_t=doc["dim_t"], b=b, codim_half=doc["codim_half"], orbits=orbits)


def one_and_true_doc():
    """The (1, 2) sphere with a JSON 1 in orbit 0's moment and a JSON true
    for orbit 1's length coefficient 1: a memo keyed on values would read
    the true as the 1 already parsed, since True == 1 and hash(True) == 1."""
    doc = weighted_sphere_system_doc(["1", "2"])
    doc["orbits"][0]["moment"][0] = 1
    doc["orbits"][1]["length"]["coeff"] = True
    return doc


class TestOrbitSystemLoader:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=respelled_system_documents())
    @example(doc=one_and_true_doc())
    def test_loader_matches_entrywise_rat(self, capsys, tmp_path, doc):
        want = entrywise_system(doc)
        try:
            got = _load_orbit_system(doc)
        except InputError as exc:
            got = str(exc)
        assert got == want
        if isinstance(want, str):
            path = write_json(tmp_path, "doc.json", doc)
            code, out = run_cli(capsys, "localize", "--input", path, "--json")
            assert code == 2
            assert json.loads(out)["error"] == {"type": "InputError", "message": want}

    @pytest.mark.parametrize("literal", [[1], {"p": 1}, None])
    def test_an_unhashable_or_null_literal_is_refused_by_rat(self, literal):
        # rows are read by dictionary lookups, which cannot hash a list or
        # an object: the message must still be the one rat gives
        doc = weighted_sphere_system_doc(["1", "2", "3"])
        doc["orbits"][1]["weights"][0][2] = literal
        with pytest.raises(InputError) as exc:
            _load_orbit_system(doc)
        assert str(exc.value) == entrywise_system(doc)
        assert "cannot interpret" in str(exc.value)

    def test_each_distinct_literal_is_parsed_once(self, monkeypatch):
        weights = ["1", "2", "3", "5", "7", "11", "13", "1/2", "1/3", "2/5", "7/4", "9/2"]
        doc = weighted_sphere_system_doc(weights)
        literals = [container[key] for container, key in literal_slots(doc)]
        parsed = []

        def counting_rat(x):
            if isinstance(x, str):
                parsed.append(x)
            return rat(x)

        monkeypatch.setattr("abbvloc.cli.rat", counting_rat)
        assert _load_orbit_system(doc) == weighted_sphere_system(weights)
        assert set(parsed) == set(literals)
        assert Counter(parsed).most_common(1)[0][1] == 1
        assert len(parsed) * 10 < len(literals)
