"""What a cold ``import abbvloc.cli`` loads.

Each CLI call is one process, so every module the import pulls in is paid
on every launch.  The records are built on ``core.Record``, so the import
must not load ``dataclasses`` or the ``inspect`` it brings along.  It must
still load every layer module eagerly: the benchmark's tracer reads each
one from ``sys.modules``.
"""

import importlib.util
import json
import os
import subprocess
import sys

import abbvloc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(abbvloc.__file__)))
TRACING = os.path.join(os.path.dirname(SRC), "bench", "tracing.py")


def _tracing_layers() -> tuple:
    spec = importlib.util.spec_from_file_location("_abbvloc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_cli_import_loads_no_dataclasses_and_every_layer():
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import abbvloc.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", script, SRC],
                         check=True, capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    layers = _tracing_layers()
    assert len(layers) == 8
    assert {f"abbvloc.{layer}" for layer in layers} <= loaded
