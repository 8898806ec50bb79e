"""The package is what a route runs.

Every golden CLI case of ``test_cli_golden`` (each subcommand at seeds 42
and 7 with ``--json``, at seed 42 as text, and the error cases) is driven
through ``cli.main`` under ``sys.setprofile``, from the first import of
``abbvloc`` on, in a fresh interpreter.  The functions and methods that
``src/abbvloc`` defines at module and class level and that never run must
be exactly the ones in UNREACHED, each with the reason it stays.

Run as a script (``PYTHONPATH=src python tests/test_package_surface.py``)
to print the unreached names as JSON.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
import types

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

UNREACHED = {
    "core.Record.__setattr__": "frozen-record contract, checked by test_records",
    "core.Record.__delattr__": "frozen-record contract, checked by test_records",
    "core.Record.__hash__": "frozen-record contract, checked by test_records",
    "core.Record.__repr__": "frozen-record contract, checked by test_records",
    "core._ExactTuple.__neg__": "the normals -e_i of weighted_sphere_cone",
    "core.basis_vector": "the normals -e_i of weighted_sphere_cone",
    "engine.OrbitDatum.moment": "dense view of the rows for the test oracles; every route reads integer_rows",
    "engine.OrbitDatum.weights": "dense view of the rows for the test oracles; every route reads integer_rows",
    "toric.HPolytope.vertices": "Fraction view of the vertices for the test oracles; every route reads integer_vertices",
    "toric.weighted_sphere_cone": "fixture builder of README and the doctests",
    "toric.simplex_cone": "fixture builder of README and the doctests",
    "cli._OneCommandParser.error": "parse errors, which the goldens do not pin",
    "cli._build_parser": "top-level help and parse errors, which the goldens do not pin",
    "cli._default_seed": "the goldens always pass --seed",
}


def defined():
    """(qualified name, code object) of every module- and class-level
    function and method of the package, properties and cached properties
    included; names are module-relative, as ``core.Record.__repr__``."""
    import abbvloc

    for info in pkgutil.iter_modules(abbvloc.__path__):
        module = importlib.import_module(f"abbvloc.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for member in members:
                for fn in (member, *(getattr(member, a, None) for a in ("__func__", "func", "fget"))):
                    if isinstance(fn, types.FunctionType):
                        yield f"{info.name}.{fn.__qualname__}", fn.__code__


def unreached() -> list:
    """The sorted names of ``defined()`` whose code never ran while the
    golden cases ran."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        import test_cli_golden as golden  # the first import of abbvloc

        with tempfile.TemporaryDirectory() as directory:
            golden.write_fixtures(directory)
            for _, argv in golden.CASES:
                for seed in golden.SEEDS:
                    golden.run_case(argv, seed, directory)
                golden.run_case(argv, golden.TEXT_SEED, directory, as_json=False)
    finally:
        sys.setprofile(None)
    return sorted({name for name, code in defined() if code not in called})


def test_every_function_is_reached_or_listed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == sorted(UNREACHED)


if __name__ == "__main__":
    print(json.dumps(unreached()))
