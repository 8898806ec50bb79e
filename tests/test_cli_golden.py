"""Golden digests of the CLI's ``--json`` output.

Every subcommand runs on in-repo fixtures at seeds 42 and 7; the exit code
and the SHA-256 of stdout must match the recorded values byte for byte.
To re-record after an intentional output change, run this file as a
script from the repo root (``PYTHONPATH=src python tests/test_cli_golden.py``)
and paste the printed table over GOLDEN.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from abbvloc.cli import main

SEEDS = (42, 7)


def _frac(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def sphere_system_doc(weights):
    """Orbit data of the weighted odd sphere (coordinate circles)."""
    w = [Fraction(x) for x in weights]
    d = len(w)
    orbits = []
    for k in range(d):
        moment = [Fraction(0)] * d
        moment[k] = 1 / w[k]
        alphas = []
        for j in range(d):
            if j != k:
                entries = [Fraction(0)] * d
                entries[k] = w[j] / w[k]
                entries[j] = Fraction(-1)
                alphas.append([_frac(e) for e in entries])
        orbits.append({
            "length": {"coeff": _frac(2 / w[k]), "pi_power": 1},
            "moment": [_frac(e) for e in moment],
            "weights": alphas,
        })
    return {"dim_t": d, "b": [_frac(x) for x in w], "codim_half": d - 1, "orbits": orbits}


def sphere_cone_doc(weights):
    d = len(weights)
    normals = [[-1 if i == j else 0 for j in range(d)] for i in range(d)]
    return {"dim": d, "pi_scale_exponent": 1, "normals": normals,
            "reeb": [_frac(x) for x in weights]}


def cube_cone_doc(k):
    """Cone over the k-cube: normals -e_i and e_i - e_0, Reeb (k+1, 1, ..., 1)."""
    d = k + 1
    normals = []
    for i in range(1, d):
        normals.append([-1 if j == i else 0 for j in range(d)])
        normals.append([-1 if j == 0 else (1 if j == i else 0) for j in range(d)])
    return {"dim": d, "pi_scale_exponent": 1, "normals": normals,
            "reeb": [str(k + 1)] + ["1"] * k}


def corrupted_system_doc():
    doc = sphere_system_doc([1, 2])
    doc["orbits"] = doc["orbits"][:1]
    return doc


FIXTURES = {
    "sphere-123": sphere_system_doc([1, 2, 3]),
    "sphere-corrupt": corrupted_system_doc(),
    "cone-sphere-123": sphere_cone_doc([1, 2, 3]),
    "cone-simplex-3": sphere_cone_doc([1, 1, 1]),
    "cube-3": cube_cone_doc(3),
    "polytope-simplex-3": {"dim": 3, "normals": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                           "reeb": ["1", "1", "1"]},
}

# (case id, argv); "@name" is replaced by the path of FIXTURES[name].
CASES = (
    ("volume-sphere-12", ("volume-sphere", "--weights", "1,2")),
    ("volume-sphere-237", ("volume-sphere", "--weights", "2,3,7", "--samples", "3")),
    ("volume-toric-sphere", ("volume-toric", "--input", "@cone-sphere-123")),
    ("volume-toric-simplex", ("volume-toric", "--input", "@cone-simplex-3")),
    ("volume-toric-cube-3", ("volume-toric", "--input", "@cube-3")),
    ("lawrence-simplex", ("lawrence", "--input", "@cone-simplex-3")),
    ("lawrence-cube-3", ("lawrence", "--input", "@cube-3")),
    ("polytope-volume-cube-3", ("polytope-volume", "--input", "@cube-3")),
    ("polytope-volume-bare", ("polytope-volume", "--input", "@polytope-simplex-3")),
    ("msy-check-sphere", ("msy-check", "--input", "@cone-sphere-123")),
    ("msy-check-cube-3", ("msy-check", "--input", "@cube-3")),
    ("localize-sphere", ("localize", "--input", "@sphere-123")),
    ("localize-j", ("localize", "--input", "@sphere-123", "--j", "1,1",
                    "--leaf-integrals", "6,3,2", "--samples", "4")),
    ("dh-sphere", ("dh", "--input", "@sphere-123", "--order", "4")),
    ("stiefel", ("stiefel", "--w", "1,2,5")),
    ("homogeneous", ("homogeneous", "--b-prime", "1,2,5")),
    ("check-w1-3", ("check-w1", "--m", "3")),
    ("secondary", ("secondary", "--weights", "1,2,3", "--j", "1,1")),
    ("check-v-independence", ("check-v-independence", "--input", "@sphere-123")),
    ("check-v-independence-fail", ("check-v-independence", "--input", "@sphere-corrupt")),
)

GOLDEN = {
    "volume-sphere-12@42": (0, "c041fd90dd883fc5731f13dc333329ef89df511000230e1a827198bad9ef4098"),
    "volume-sphere-12@7": (0, "330fe1a1653b54387128893f29796fc60c6abe123b786d1d975081d776316b7a"),
    "volume-sphere-237@42": (0, "e13d6517a1c80d16ed5936c84c43b57901d03e21e640e8dcd8cc321ba7a7db88"),
    "volume-sphere-237@7": (0, "e13d6517a1c80d16ed5936c84c43b57901d03e21e640e8dcd8cc321ba7a7db88"),
    "volume-toric-sphere@42": (0, "c04c43e758890655739fea836f26f1dd0847f7beaa2f7001f9ffd09d41b73ec8"),
    "volume-toric-sphere@7": (0, "c04c43e758890655739fea836f26f1dd0847f7beaa2f7001f9ffd09d41b73ec8"),
    "volume-toric-simplex@42": (0, "c2a9460daa20f2ec7928a84051f8c62093801c833e4707be50790e6230495297"),
    "volume-toric-simplex@7": (0, "a4d652d9352da3013fcb0de5d55ba1b623c4423d1e65ef8c4e9ba3bc6a04ddf7"),
    "volume-toric-cube-3@42": (0, "fc01ad1d429cf18cd01b2a75b352c8148aaf426e72ddc5aacbf0b60609a289cb"),
    "volume-toric-cube-3@7": (0, "89360ed5e15077872dca236aaa63e038dd7d8f4a696693fabef7a2ff215a6a51"),
    "lawrence-simplex@42": (0, "7e55f489f7a679c72424eb447c6c05466a7b63743c68e9c06c3cffc1f25a2964"),
    "lawrence-simplex@7": (0, "7e55f489f7a679c72424eb447c6c05466a7b63743c68e9c06c3cffc1f25a2964"),
    "lawrence-cube-3@42": (0, "e99c7d021e74f058444eb9f6907df9c305949b0cef345f81158153693d3db3a7"),
    "lawrence-cube-3@7": (0, "e99c7d021e74f058444eb9f6907df9c305949b0cef345f81158153693d3db3a7"),
    "polytope-volume-cube-3@42": (0, "b6b76bc7df34393a51fced0b0c2f5a8a4646fbf6ea37d818788f56c14d8eba8d"),
    "polytope-volume-cube-3@7": (0, "b6b76bc7df34393a51fced0b0c2f5a8a4646fbf6ea37d818788f56c14d8eba8d"),
    "polytope-volume-bare@42": (0, "e39651c2176ea243578555ecbffb8a7bffa46705f975e65effa7a7ff104f1f6b"),
    "polytope-volume-bare@7": (0, "e39651c2176ea243578555ecbffb8a7bffa46705f975e65effa7a7ff104f1f6b"),
    "msy-check-sphere@42": (0, "9a263dff313a264bd130fc261a499149683acc1fb544e366c4443ea68170ec71"),
    "msy-check-sphere@7": (0, "9a263dff313a264bd130fc261a499149683acc1fb544e366c4443ea68170ec71"),
    "msy-check-cube-3@42": (0, "710a42977d657ee649b976d3631773c71f1c640f1b1db971dc31be0005587415"),
    "msy-check-cube-3@7": (0, "710a42977d657ee649b976d3631773c71f1c640f1b1db971dc31be0005587415"),
    "localize-sphere@42": (0, "85549d282f5af2cbe604aee132c53d6122270a393aa1e60b183b8ffe5c173b8e"),
    "localize-sphere@7": (0, "85549d282f5af2cbe604aee132c53d6122270a393aa1e60b183b8ffe5c173b8e"),
    "localize-j@42": (0, "3b3fcd0cf7512824f8ae44718e82cb8ff751fe75caa9ba23004dc2af8b7b8881"),
    "localize-j@7": (0, "3b3fcd0cf7512824f8ae44718e82cb8ff751fe75caa9ba23004dc2af8b7b8881"),
    "dh-sphere@42": (0, "26886694ce23ca7b0c222c9c874ff54347dc7724bff281633dc8dc11453aa8c5"),
    "dh-sphere@7": (0, "8d16e0afe84a676aff1cf93a14aff97348f30dba535077fd819342fb969d2366"),
    "stiefel@42": (0, "6b2919446227d3d48ba105bff298af05df7688d22a8f7fde3b98fdc937b099c5"),
    "stiefel@7": (0, "6b2919446227d3d48ba105bff298af05df7688d22a8f7fde3b98fdc937b099c5"),
    "homogeneous@42": (0, "bfc82783717e6282e416815615da68de6fba930c8cb2a331cbd4f3bedd6bfc7c"),
    "homogeneous@7": (0, "bfc82783717e6282e416815615da68de6fba930c8cb2a331cbd4f3bedd6bfc7c"),
    "check-w1-3@42": (0, "6ecb228ce846a23df8b650b235636d74112fdc718dd72e88b55b1e5dba0443b8"),
    "check-w1-3@7": (0, "6ecb228ce846a23df8b650b235636d74112fdc718dd72e88b55b1e5dba0443b8"),
    "secondary@42": (0, "1d176cbf1a0d7f63e0b2d16d460acbc89c25451a36e2d5cf3be11ca0fdaad3c9"),
    "secondary@7": (0, "1d176cbf1a0d7f63e0b2d16d460acbc89c25451a36e2d5cf3be11ca0fdaad3c9"),
    "check-v-independence@42": (0, "16aa89cc628be152aadacc2e315253b9173e84e9a82215ab380f97c4b77258d8"),
    "check-v-independence@7": (0, "16aa89cc628be152aadacc2e315253b9173e84e9a82215ab380f97c4b77258d8"),
    "check-v-independence-fail@42": (1, "290951ebaca8c95e51be28385cf4d3fb719ac9f72f00e49ca44d2eabb11312a6"),
    "check-v-independence-fail@7": (1, "3e829bb4b7dea9a891cc2377214766e729b6d743bcf1471aa940bd13f2e9822c"),
}


def run_case(argv, seed, fixture_dir):
    args = [os.path.join(fixture_dir, a[1:] + ".json") if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args + ["--json", "--seed", str(seed)])
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def write_fixtures(directory):
    for name, doc in FIXTURES.items():
        with open(os.path.join(directory, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_fixtures(str(directory))
    return str(directory)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case_id,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(case_id, argv, seed, fixture_dir):
    assert run_case(argv, seed, fixture_dir) == GOLDEN[f"{case_id}@{seed}"]


def test_every_subcommand_is_pinned():
    pinned = {argv[0] for _, argv in CASES}
    assert pinned == {
        "volume-sphere", "volume-toric", "lawrence", "polytope-volume", "msy-check",
        "localize", "dh", "stiefel", "homogeneous", "check-w1", "secondary",
        "check-v-independence",
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        write_fixtures(directory)
        print("GOLDEN = {")
        for case_id, argv in CASES:
            for seed in SEEDS:
                code, digest = run_case(argv, seed, directory)
                print(f'    "{case_id}@{seed}": ({code}, "{digest}"),')
        print("}")
    sys.exit(0)
