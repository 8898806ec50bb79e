"""Golden digests of the CLI's output.

Every subcommand runs on in-repo fixtures at seeds 42 and 7 with ``--json``
(GOLDEN), and at seed 42 as text (TEXT_GOLDEN); the exit code and the
SHA-256 of stdout must match the recorded values byte for byte.  To
re-record after an intentional output change, run this file as a script
from the repo root (``PYTHONPATH=src python tests/test_cli_golden.py``) and
paste the printed tables over GOLDEN and TEXT_GOLDEN.
"""

import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from abbvloc.cli import main
from abbvloc.homogeneous import stiefel_so5_so3
from root_data_oracle import CONJUGATOR, conjugate, root_data_document

SEEDS = (42, 7)
TEXT_SEED = 42


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


def mixed_literal_doc(weights):
    """sphere_system_doc with its rationals spelled three ways in turn: a
    JSON integer where the value is one (else an unreduced "2p/2q"), a
    padded " p/q " and an unreduced "3p/3q"."""
    doc = sphere_system_doc(weights)
    turn = itertools.count()

    def spell(text):
        q = Fraction(text)
        k = next(turn) % 3
        if k == 0:
            return q.numerator if q.denominator == 1 else f"{2 * q.numerator}/{2 * q.denominator}"
        if k == 1:
            return f" {text} "
        return f"{3 * q.numerator}/{3 * q.denominator}"

    doc["b"] = [spell(x) for x in doc["b"]]
    for orbit in doc["orbits"]:
        orbit["length"]["coeff"] = spell(orbit["length"]["coeff"])
        orbit["moment"] = [spell(x) for x in orbit["moment"]]
        orbit["weights"] = [[spell(x) for x in alpha] for alpha in orbit["weights"]]
    return doc


def sphere_cone_doc(weights):
    d = len(weights)
    normals = [[-1 if i == j else 0 for j in range(d)] for i in range(d)]
    return {"dim": d, "pi_scale_exponent": 1, "normals": normals,
            "reeb": [_frac(x) for x in weights]}


def cube_cone_doc(k, reeb=None):
    """Cone over the k-cube: normals -e_i and e_i - e_0, Reeb (k+1, 1, ..., 1)
    unless ``reeb`` is given."""
    d = k + 1
    normals = []
    for i in range(1, d):
        normals.append([-1 if j == i else 0 for j in range(d)])
        normals.append([-1 if j == 0 else (1 if j == i else 0) for j in range(d)])
    return {"dim": d, "pi_scale_exponent": 1, "normals": normals,
            "reeb": reeb or [str(k + 1)] + ["1"] * k}


def simplex_product_cone_doc(a, b, reeb):
    """Cone over Delta^a x Delta^b: x >= 0, sum(x) <= phi_0, y >= 0,
    sum(y) <= phi_0 in coordinates (phi_0, x_1..x_a, y_1..y_b)."""
    d = a + b + 1
    normals = []
    for block in (range(1, a + 1), range(a + 1, d)):
        normals += [[-1 if j == i else 0 for j in range(d)] for i in block]
        normals.append([-1] + [1 if j in block else 0 for j in range(1, d)])
    return {"dim": d, "pi_scale_exponent": 1, "normals": normals, "reeb": reeb}


def stiefel_root_data_doc(*weyl_reps):
    """SO(5)/SO(3)'s root data with the identity and the given rows as its
    Weyl representatives."""
    identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    return {"dim_t": 3, "roots": [["1", "0", "0"], ["1", "1", "0"], ["1", "-1", "0"]],
            "weyl_reps": [identity, *weyl_reps], "b": ["0", "0", "1"], "p": ["-1", "0", "1"]}


def corrupted_system_doc():
    doc = sphere_system_doc([1, 2])
    doc["orbits"] = doc["orbits"][:1]
    return doc


FIXTURES = {
    "sphere-123": sphere_system_doc([1, 2, 3]),
    "sphere-corrupt": corrupted_system_doc(),
    "sphere-mixed": mixed_literal_doc(["1/2", "3", "5/3", "7"]),
    "cone-sphere-123": sphere_cone_doc([1, 2, 3]),
    "cone-simplex-3": sphere_cone_doc([1, 1, 1]),
    "cube-3": cube_cone_doc(3),
    # rational Reeb vectors: the determinant routes scale b and v to integers
    "cube-4-rational": cube_cone_doc(4, ["5", "1/2", "3/2", "2", "1"]),
    "product-2-2": simplex_product_cone_doc(2, 2, ["6", "1/3", "2", "-1/2", "1"]),
    "polytope-simplex-3": {"dim": 3, "normals": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
                           "reeb": ["1", "1", "1"]},
    # the first two facets span an index-2 sublattice: GoodnessViolation, exit 2
    "cone-not-good": {"dim": 3, "pi_scale_exponent": 1,
                      "normals": [[-1, 1, 0], [-1, -1, 0], [0, 0, -1]], "reeb": ["1", "0", "1"]},
    # larger sections for the two pulling orders of polytope-volume, ascending
    # and from vertex 1, which share no simplex on cube 5 and 4 of 20 on 3 x 3
    "cube-5": cube_cone_doc(5),
    "product-3-3": simplex_product_cone_doc(3, 3, ["9", "1/2", "2", "-1/3", "1", "3/2", "-1"]),
    # matrix-shaped input errors, exit 2; a bad literal is reported before ragged rows
    **{f"cone-basis-{name}": dict(sphere_cone_doc([1, 2]), lattice_basis=basis)
       for name, basis in (("empty", []), ("one-row", [[1, 0]]), ("ragged", [[1, 0], [0]]),
                           ("singular", [[1, 0], [0, 0]]),
                           ("ragged-bad-literal", [[1, 0], [0], ["x", 1]]))},
    "roots-weyl-ragged": stiefel_root_data_doc([["0", "1", "0"], ["1", "0"], ["0", "0", "1"]]),
    "roots-weyl-2x3": stiefel_root_data_doc([["0", "1", "0"], ["1", "0", "0"]]),
    "roots-weyl-singular": stiefel_root_data_doc([["0", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    # the Stiefel fixture conjugated by a rational g, so its Weyl
    # representatives have rows that integer scaling scales unevenly
    "roots-conjugated": root_data_document(conjugate(stiefel_so5_so3(), CONJUGATOR)),
    # messages that name a vertex, exit 2: the strip 0 <= phi_0 <= 1, phi_1 >= 0
    # at phi_2 = 1 (two vertices, one ray), and a square section with an extra
    # diagonal facet through one corner, as a cone and as a bare polytope
    "polytope-strip": {"dim": 3, "normals": [[-1, 0, 0], [0, -1, 0], [1, 0, -1]],
                       "reeb": ["0", "0", "1"]},
    # one vertex, on facets 3 and 9, with two rays: the message names the ray
    # first met in the edge map's order, not the one on the lower facet
    "polytope-two-rays": {"dim": 3, "reeb": ["0", "0", "1"],
                          "normals": [[1, 1, -5], [1, 2, -7], [2, 1, -9], [1, 0, 0],
                                      [1, 3, -11], [3, 1, -13], [1, 4, -17], [4, 1, -19],
                                      [1, 5, -23], [0, 1, 0]]},
    "polytope-square-diagonal": {"dim": 3, "reeb": ["0", "0", "1"],
                                 "normals": [[1, 0, -1], [-1, 0, -1], [0, 1, -1], [0, -1, -1],
                                             [1, 1, -2]]},
    "cone-square-diagonal": {"dim": 3, "pi_scale_exponent": 1, "reeb": ["0", "0", "1"],
                             "normals": [[1, 0, -1], [-1, 0, -1], [0, 1, -1], [0, -1, -1],
                                         [1, 1, -2]]},
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
    *((f"{command}-{name}", (command, "--input", f"@{name}"))
      for name in ("cube-4-rational", "product-2-2")
      for command in ("volume-toric", "msy-check", "lawrence", "polytope-volume")),
    *((f"{command}-not-good", (command, "--input", "@cone-not-good"))
      for command in ("volume-toric", "polytope-volume")),
    *((f"{command}-{name}", (command, "--input", f"@{name}"))
      for name in ("cube-5", "product-3-3") for command in ("polytope-volume", "msy-check")),
    *((f"{command}-strip", (command, "--input", "@polytope-strip"))
      for command in ("polytope-volume", "lawrence")),
    *((f"{command}-two-rays", (command, "--input", "@polytope-two-rays"))
      for command in ("polytope-volume", "lawrence")),
    ("volume-toric-square-diagonal", ("volume-toric", "--input", "@cone-square-diagonal")),
    ("polytope-volume-square-diagonal", ("polytope-volume", "--input",
                                         "@polytope-square-diagonal")),
    *((f"volume-toric-basis-{name}", ("volume-toric", "--input", f"@cone-basis-{name}"))
      for name in ("empty", "one-row", "ragged", "singular", "ragged-bad-literal")),
    *((f"homogeneous-{name}", ("homogeneous", "--input", f"@roots-{name}", "--b-prime", "0,0,1"))
      for name in ("weyl-ragged", "weyl-2x3", "weyl-singular")),
    # at g (3/2, 1/3, 5), and at g (1, 0, 1), where p o w^-1 vanishes for w = 1
    ("homogeneous-conjugated", ("homogeneous", "--input", "@roots-conjugated",
                                "--b-prime", "5/3,2,8")),
    ("homogeneous-conjugated-degenerate", ("homogeneous", "--input", "@roots-conjugated",
                                           "--b-prime", "1,1/3,3")),
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
    # one document, its literals as JSON integers, padded and unreduced strings
    ("localize-mixed", ("localize", "--input", "@sphere-mixed")),
    ("localize-j-mixed", ("localize", "--input", "@sphere-mixed", "--j", "1,2",
                          "--leaf-integrals", "73/3,73/18,73/10,73/42", "--samples", "3")),
    ("dh-mixed", ("dh", "--input", "@sphere-mixed", "--order", "5")),
    ("check-v-independence-mixed", ("check-v-independence", "--input", "@sphere-mixed",
                                    "--samples", "3")),
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
    "volume-toric-cube-4-rational@42": (0, "8d7d9ed43f73cb99ff8aaea69708f3ba52f704fedf3672dc4d4fc66d3451697c"),
    "volume-toric-cube-4-rational@7": (0, "8d7d9ed43f73cb99ff8aaea69708f3ba52f704fedf3672dc4d4fc66d3451697c"),
    "msy-check-cube-4-rational@42": (0, "b5eebc65403aa374c81bf487701496f2313bf591756b90f2ebd3cf3676532082"),
    "msy-check-cube-4-rational@7": (0, "b5eebc65403aa374c81bf487701496f2313bf591756b90f2ebd3cf3676532082"),
    "lawrence-cube-4-rational@42": (0, "f14b33f813482e168fe5484fa865d2319cb326c692ab34f96d1d71e680cf8c76"),
    "lawrence-cube-4-rational@7": (0, "f14b33f813482e168fe5484fa865d2319cb326c692ab34f96d1d71e680cf8c76"),
    "polytope-volume-cube-4-rational@42": (0, "47d86c89c7bb9ae206a135396e10f064f9dbb1e5b03389304ccb8dc1e976523e"),
    "polytope-volume-cube-4-rational@7": (0, "47d86c89c7bb9ae206a135396e10f064f9dbb1e5b03389304ccb8dc1e976523e"),
    "volume-toric-product-2-2@42": (0, "2ad00ac62d8ef32ac5d193bc66049b4f742ca71eca757d6c9c3beb9c7ad8abf9"),
    "volume-toric-product-2-2@7": (0, "145b8973bd1567f14ab4ef4edfc6ad0f113d649f9bf8656642744418050e2292"),
    "msy-check-product-2-2@42": (0, "377907b44bd92bd6e8e94717371f8c53ba4a85ed70c7b2e9e2e338268235a254"),
    "msy-check-product-2-2@7": (0, "377907b44bd92bd6e8e94717371f8c53ba4a85ed70c7b2e9e2e338268235a254"),
    "lawrence-product-2-2@42": (0, "00b43a869fe8c96b992a1786fc16b373b455cf3a7cb03d6c7517c1d757a03069"),
    "lawrence-product-2-2@7": (0, "00b43a869fe8c96b992a1786fc16b373b455cf3a7cb03d6c7517c1d757a03069"),
    "polytope-volume-product-2-2@42": (0, "71c30324fc092dec95ad5af0ad4e2ffe5e64b982893da43a2ffd2644b72d3120"),
    "polytope-volume-product-2-2@7": (0, "71c30324fc092dec95ad5af0ad4e2ffe5e64b982893da43a2ffd2644b72d3120"),
    "volume-toric-not-good@42": (2, "706eb500ff24b4769d6e28223b5286b416a90e3a2b5edd7fc356ba5144c43b19"),
    "volume-toric-not-good@7": (2, "706eb500ff24b4769d6e28223b5286b416a90e3a2b5edd7fc356ba5144c43b19"),
    "polytope-volume-not-good@42": (2, "706eb500ff24b4769d6e28223b5286b416a90e3a2b5edd7fc356ba5144c43b19"),
    "polytope-volume-not-good@7": (2, "706eb500ff24b4769d6e28223b5286b416a90e3a2b5edd7fc356ba5144c43b19"),
    "polytope-volume-cube-5@42": (0, "32c224c46d4588ab58f9c8e6ab41a73d22d6e7d50fbf51b2923be5435484a192"),
    "polytope-volume-cube-5@7": (0, "32c224c46d4588ab58f9c8e6ab41a73d22d6e7d50fbf51b2923be5435484a192"),
    "msy-check-cube-5@42": (0, "6b93f89d0cbbcd775aa8ffd0f59dc81bd567fea899d03acac1250133ac177b62"),
    "msy-check-cube-5@7": (0, "6b93f89d0cbbcd775aa8ffd0f59dc81bd567fea899d03acac1250133ac177b62"),
    "polytope-volume-product-3-3@42": (0, "87beb5d63aa3dee5b541519bd7623147fff0deacfbfbb5b7ccd9589aac324b66"),
    "polytope-volume-product-3-3@7": (0, "87beb5d63aa3dee5b541519bd7623147fff0deacfbfbb5b7ccd9589aac324b66"),
    "msy-check-product-3-3@42": (0, "39b8e4e249ca009a68afb982f86fcf329560ed06678a42d4e4c0ec4c5f344e55"),
    "msy-check-product-3-3@7": (0, "39b8e4e249ca009a68afb982f86fcf329560ed06678a42d4e4c0ec4c5f344e55"),
    "polytope-volume-strip@42": (2, "035aaa5b684a645e8f05c687e07cc44135c2f5eff6521b132215d5fad0462bef"),
    "polytope-volume-strip@7": (2, "035aaa5b684a645e8f05c687e07cc44135c2f5eff6521b132215d5fad0462bef"),
    "lawrence-strip@42": (2, "035aaa5b684a645e8f05c687e07cc44135c2f5eff6521b132215d5fad0462bef"),
    "lawrence-strip@7": (2, "035aaa5b684a645e8f05c687e07cc44135c2f5eff6521b132215d5fad0462bef"),
    "polytope-volume-two-rays@42": (2, "60c08db590383fff374bba8f40504c746e2111cda6bef70ebcad7884ffcc05d6"),
    "polytope-volume-two-rays@7": (2, "60c08db590383fff374bba8f40504c746e2111cda6bef70ebcad7884ffcc05d6"),
    "lawrence-two-rays@42": (2, "60c08db590383fff374bba8f40504c746e2111cda6bef70ebcad7884ffcc05d6"),
    "lawrence-two-rays@7": (2, "60c08db590383fff374bba8f40504c746e2111cda6bef70ebcad7884ffcc05d6"),
    "volume-toric-square-diagonal@42": (2, "90f5a85b32f802530b0c16b0e891d44a2bcf2524a262e0613efb3cd6bd779599"),
    "volume-toric-square-diagonal@7": (2, "90f5a85b32f802530b0c16b0e891d44a2bcf2524a262e0613efb3cd6bd779599"),
    "polytope-volume-square-diagonal@42": (2, "90f5a85b32f802530b0c16b0e891d44a2bcf2524a262e0613efb3cd6bd779599"),
    "polytope-volume-square-diagonal@7": (2, "90f5a85b32f802530b0c16b0e891d44a2bcf2524a262e0613efb3cd6bd779599"),
    "volume-toric-basis-empty@42": (2, "25195c5744dd46584a79ed753f754afe501507c0f8284a7f46e5613062f41105"),
    "volume-toric-basis-empty@7": (2, "25195c5744dd46584a79ed753f754afe501507c0f8284a7f46e5613062f41105"),
    "volume-toric-basis-one-row@42": (2, "25195c5744dd46584a79ed753f754afe501507c0f8284a7f46e5613062f41105"),
    "volume-toric-basis-one-row@7": (2, "25195c5744dd46584a79ed753f754afe501507c0f8284a7f46e5613062f41105"),
    "volume-toric-basis-ragged@42": (2, "4e113417a9225295c8783cad3e8c7c22b3087235546b7c7182a3b815b9e283b4"),
    "volume-toric-basis-ragged@7": (2, "4e113417a9225295c8783cad3e8c7c22b3087235546b7c7182a3b815b9e283b4"),
    "volume-toric-basis-singular@42": (2, "fcc10f8ed7776bd2129be7e2e630d4c244a422cdac6be4dbd004a2cbbaff9429"),
    "volume-toric-basis-singular@7": (2, "fcc10f8ed7776bd2129be7e2e630d4c244a422cdac6be4dbd004a2cbbaff9429"),
    "volume-toric-basis-ragged-bad-literal@42": (2, "12d1596a38431cac2f3c6b651ec832a9e08839a2ee90f582f057177c857922d1"),
    "volume-toric-basis-ragged-bad-literal@7": (2, "12d1596a38431cac2f3c6b651ec832a9e08839a2ee90f582f057177c857922d1"),
    "homogeneous-weyl-ragged@42": (2, "8d378b9710446532e79ca6935ef98f8f35ca771b618f5d6a643f85b2f031e299"),
    "homogeneous-weyl-ragged@7": (2, "8d378b9710446532e79ca6935ef98f8f35ca771b618f5d6a643f85b2f031e299"),
    "homogeneous-weyl-2x3@42": (2, "2f7cd6429c90cd87d4f2dff986b176e7e4ecb5c446ca1fef1066c85105fdec2a"),
    "homogeneous-weyl-2x3@7": (2, "2f7cd6429c90cd87d4f2dff986b176e7e4ecb5c446ca1fef1066c85105fdec2a"),
    "homogeneous-weyl-singular@42": (2, "d1db7cee3d30bad8fa1a701b02e6b12ee36f311d1acfef83ed2b44b16ca86dd2"),
    "homogeneous-weyl-singular@7": (2, "d1db7cee3d30bad8fa1a701b02e6b12ee36f311d1acfef83ed2b44b16ca86dd2"),
    "homogeneous-conjugated@42": (0, "ea1286a0f760dcbe6e987dbf68f18f04d93a8a0424e1523f3326c1e46618f28a"),
    "homogeneous-conjugated@7": (0, "ea1286a0f760dcbe6e987dbf68f18f04d93a8a0424e1523f3326c1e46618f28a"),
    "homogeneous-conjugated-degenerate@42": (2, "d6949cd33c8bc2908e0fd3c6c14f78031f5860b00d30519440108692a88a10fe"),
    "homogeneous-conjugated-degenerate@7": (2, "d6949cd33c8bc2908e0fd3c6c14f78031f5860b00d30519440108692a88a10fe"),
    "localize-mixed@42": (0, "a8d0d902083a3e6713c63fc95925e6a947f9ce828c2254401e00e6a30983e7a0"),
    "localize-mixed@7": (0, "a8d0d902083a3e6713c63fc95925e6a947f9ce828c2254401e00e6a30983e7a0"),
    "localize-j-mixed@42": (0, "1c448351d48737f40a0f7115165fcac319f5a6b628ef470ab69f83b7448a2428"),
    "localize-j-mixed@7": (0, "1c448351d48737f40a0f7115165fcac319f5a6b628ef470ab69f83b7448a2428"),
    "dh-mixed@42": (0, "41a138d38db2dfe071f7a992ac09b9221c6483340b9f6c5d580de1a4a1ff4876"),
    "dh-mixed@7": (0, "0f1d4cf2054248c5eb7d18edcc2cd7f07b08940f3ad90c473a58120232789760"),
    "check-v-independence-mixed@42": (0, "342c57494ff7813b4680efd52e04a22ee69d047b2ccf9c2164aca6662792fab0"),
    "check-v-independence-mixed@7": (0, "342c57494ff7813b4680efd52e04a22ee69d047b2ccf9c2164aca6662792fab0"),
}

# Text output (no --json) at TEXT_SEED.
TEXT_GOLDEN = {
    "volume-sphere-12": (0, "c5a4d1e39ca4cd113873f0aa4be2cd9af1a844f72bfd3db174d024ddf97f6c02"),
    "volume-sphere-237": (0, "b5e0b6046520820b404ca756ce624af31b9e4fb215cf9e9894cfe0252e60a268"),
    "volume-toric-sphere": (0, "25d101d964a1a99e28ac3d3d28ca35ad2044a660a3503523e3f78e0a81054174"),
    "volume-toric-simplex": (0, "8c9ae326f9d7c25bbdd9d1ec57ef09d82e800bee619dd632f6be3455742e0e37"),
    "volume-toric-cube-3": (0, "b95050b1baf1a733e3152e0d572273ba9a20701912e23b5c93e8065c18028449"),
    "lawrence-simplex": (0, "e251b205598967240f5ab8037667fcf2652eddf00c734473dd7b846349fbdfbb"),
    "lawrence-cube-3": (0, "b735b9d8abdbd5ce09e1c3787590a2be37bdb63d08e567694132c0fc85f89190"),
    "polytope-volume-cube-3": (0, "e6279d82f4e7685f0e2d85ba8c7980eb5b6a50d4d73d22f0236623525d65b107"),
    "polytope-volume-bare": (0, "f1e683776348c4126069067cce58e12ac1b2a2edac3484c4fe85f5529bb1cd6b"),
    "msy-check-sphere": (0, "769ce0f89ff7f3389265e0383479750c7ad58eba57cb8b45872f2ab03b77c0bf"),
    "msy-check-cube-3": (0, "fbb893d84f5a5d282170020ad7bae3bfeb3bb056039687a8573d23a02d173d17"),
    "volume-toric-cube-4-rational": (0, "7e7451af7dd5f357487b454880e2f2f5da70f3f1882b2051ef661fb581506585"),
    "msy-check-cube-4-rational": (0, "2224d07f6ebbd60b8520f1606026b6925c8e8be5cc10b1e1c5cd0f22292818f2"),
    "lawrence-cube-4-rational": (0, "8b50958cda7c1947e491a165ca8f01ca6e67c393e950a91b6c0e18e6bef3f3ce"),
    "polytope-volume-cube-4-rational": (0, "49b0146fc11fed7b2e947f1098a6a23c418948990b6c1324f5a7c639683a3242"),
    "volume-toric-product-2-2": (0, "4c1d8b3cb841921922c3f933f1e1eede1a817de6d41a58c5b3972011b133d40f"),
    "msy-check-product-2-2": (0, "f8e5feecb31ea4966d2a709c0bdc616ad80db4f686457e5796a76c6cd5f39f0e"),
    "lawrence-product-2-2": (0, "e1c7ce180061a353dcde0dae9ba979735bb5726ba19e7c30772246827ef3aca1"),
    "polytope-volume-product-2-2": (0, "924514858c1a218b3e93307b9b959b6bcaafa39f7aa567ec33864c82103e3a51"),
    "volume-toric-not-good": (2, "706eb500ff24b4769d6e28223b5286b416a90e3a2b5edd7fc356ba5144c43b19"),
    "polytope-volume-not-good": (2, "706eb500ff24b4769d6e28223b5286b416a90e3a2b5edd7fc356ba5144c43b19"),
    "polytope-volume-cube-5": (0, "91e8dfc3c6e34251695b051a1e1fb262c299ccaffa1426592d858ecea421fc7c"),
    "msy-check-cube-5": (0, "7302005a209f05cba02b9381f36d6f368c904749d491ff4ca962dbef8416666d"),
    "polytope-volume-product-3-3": (0, "56ef331b507d77162e31adc007a806e13392a03f9666ecbf0a786dd8bb93984d"),
    "msy-check-product-3-3": (0, "aea82dd06587a8e2cc40889b4760a101c5761d33876754f286a8de30eca6cfc8"),
    "polytope-volume-strip": (2, "035aaa5b684a645e8f05c687e07cc44135c2f5eff6521b132215d5fad0462bef"),
    "lawrence-strip": (2, "035aaa5b684a645e8f05c687e07cc44135c2f5eff6521b132215d5fad0462bef"),
    "polytope-volume-two-rays": (2, "60c08db590383fff374bba8f40504c746e2111cda6bef70ebcad7884ffcc05d6"),
    "lawrence-two-rays": (2, "60c08db590383fff374bba8f40504c746e2111cda6bef70ebcad7884ffcc05d6"),
    "volume-toric-square-diagonal": (2, "90f5a85b32f802530b0c16b0e891d44a2bcf2524a262e0613efb3cd6bd779599"),
    "polytope-volume-square-diagonal": (2, "90f5a85b32f802530b0c16b0e891d44a2bcf2524a262e0613efb3cd6bd779599"),
    "volume-toric-basis-empty": (2, "25195c5744dd46584a79ed753f754afe501507c0f8284a7f46e5613062f41105"),
    "volume-toric-basis-one-row": (2, "25195c5744dd46584a79ed753f754afe501507c0f8284a7f46e5613062f41105"),
    "volume-toric-basis-ragged": (2, "4e113417a9225295c8783cad3e8c7c22b3087235546b7c7182a3b815b9e283b4"),
    "volume-toric-basis-singular": (2, "fcc10f8ed7776bd2129be7e2e630d4c244a422cdac6be4dbd004a2cbbaff9429"),
    "volume-toric-basis-ragged-bad-literal": (2, "12d1596a38431cac2f3c6b651ec832a9e08839a2ee90f582f057177c857922d1"),
    "homogeneous-weyl-ragged": (2, "8d378b9710446532e79ca6935ef98f8f35ca771b618f5d6a643f85b2f031e299"),
    "homogeneous-weyl-2x3": (2, "2f7cd6429c90cd87d4f2dff986b176e7e4ecb5c446ca1fef1066c85105fdec2a"),
    "homogeneous-weyl-singular": (2, "d1db7cee3d30bad8fa1a701b02e6b12ee36f311d1acfef83ed2b44b16ca86dd2"),
    "homogeneous-conjugated": (0, "9f38a76d7093a770d12d059c3fb2006d0ce58f707225084e90f5f433eceb009c"),
    "homogeneous-conjugated-degenerate": (2, "d6949cd33c8bc2908e0fd3c6c14f78031f5860b00d30519440108692a88a10fe"),
    "localize-sphere": (0, "3d65b741c14e753018fdf2d7f58f41bd8a00fc249f112b4402059d261217307a"),
    "localize-j": (0, "5dfdd7216838ddc162d56593fff17a5c1b389039eeaf1cdc29e20a12f4afc51b"),
    "dh-sphere": (0, "a22e52a7accdb935a9e3ab6f31a8aee527043381fc3fa599d8be69cff3e43c3c"),
    "stiefel": (0, "f5a679fe2bf1b9c1a8c2222392abed53322a0227282a2b64dff7c9d39d01a408"),
    "homogeneous": (0, "7ef81ed65fb448bcfb4ea6b68b8dd7a68265d13440433ed34e7c6ece89236a7d"),
    "check-w1-3": (0, "3e1286898f1897235f61c8e598d32fc80651872b3c2c1d3bf8dab569d0d3e7b2"),
    "secondary": (0, "ed19d1a0aeb5db0e5b73d58826fc32c1f7df0624d536782d04c287389b8efb31"),
    "check-v-independence": (0, "91801b63c19a74e390a2d3a918be2679a0dd162989506c9ffc1d0a2485453e67"),
    "check-v-independence-fail": (1, "05d7af23e4a6d941a1306c5543d05ebbc919f21a9e447e7bb67376d10b0ca9c8"),
    "localize-mixed": (0, "15e31fcab16142657e925f20a28ca172afdf0e70eb2678ee5d1a06cb56a1dfdc"),
    "localize-j-mixed": (0, "cc6f12ae11f0b68f349a0e63f5dfdaa711331de2ecb6ea75b513f4b7ec5988fb"),
    "dh-mixed": (0, "95adc39a9e6d779e66d11e84aa9803a44cc1521b5e6e6d50d4cde13e6b203e52"),
    "check-v-independence-mixed": (0, "5dcd93ef60b4ac58e66144a08fb00933b83e43277e7b47b61ea2695e030379eb"),
}



def run_case(argv, seed, fixture_dir, as_json=True):
    args = [os.path.join(fixture_dir, a[1:] + ".json") if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args + ["--json"] * as_json + ["--seed", str(seed)])
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


@pytest.mark.parametrize("case_id,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_text_output(case_id, argv, fixture_dir):
    assert run_case(argv, TEXT_SEED, fixture_dir, as_json=False) == TEXT_GOLDEN[case_id]


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
        print("TEXT_GOLDEN = {")
        for case_id, argv in CASES:
            code, digest = run_case(argv, TEXT_SEED, directory, as_json=False)
            print(f'    "{case_id}": ({code}, "{digest}"),')
        print("}")
    sys.exit(0)
