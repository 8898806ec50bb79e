import json

import pytest

from abbvloc.cli import main
from test_cli_golden import sphere_system_doc as weighted_sphere_system_doc


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
        doc = {
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
        path = write_json(tmp_path, "roots.json", doc)
        code, out = run_cli(
            capsys, "homogeneous", "--input", path, "--b-prime", "0,0,1", "--json"
        )
        assert code == 0
        assert json.loads(out)["exact"] == "2/3 * pi^4"


class TestIdentityCommands:
    def test_check_w1(self, capsys):
        code, out = run_cli(
            capsys, "check-w1", "--m", "3", "--trials", "50", "--seed", "7"
        )
        assert code == 0
        assert "[FAIL]" not in out

    def test_secondary(self, capsys):
        code, out = run_cli(capsys, "secondary", "--weights", "1,2", "--j", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == "9/2 * pi^0"


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

    def test_check_w1_zero_trials_exit_2(self, capsys):
        code, out = run_cli(capsys, "check-w1", "--m", "3", "--trials", "0")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InputError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("volume-sphere", "--weights", "1,2"),
            ("volume-toric", "--input", "@cone"),
            ("localize", "--input", "@system"),
            ("homogeneous", "--b-prime", "1,2,5"),
            ("secondary", "--weights", "1,2", "--j", "1"),
            ("check-v-independence", "--input", "@system"),
        ],
    )
    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_fewer_than_two_samples_exit_2(self, capsys, tmp_path, argv, samples):
        paths = {
            "@cone": write_json(tmp_path, "c.json", sphere_cone_doc([1, 2])),
            "@system": write_json(tmp_path, "s.json", sphere_system_doc()),
        }
        argv = [paths.get(a, a) for a in argv]
        code, out = run_cli(capsys, *argv, "--samples", samples)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InputError", "message": "need at least 2 samples"
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
