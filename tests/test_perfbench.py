"""The benchmark's layer tracer finds every name it patches in dampwave."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_finds_every_layer_hook():
    # a traced benchmark run counts an instance with a missing hook as
    # failed; install in a subprocess, so that the patches stay out of the
    # other tests
    code = ("import json, sys; sys.path[:0] = ['perfbench', 'src']; "
            "from layers import Tracer, install; print(json.dumps(install(Tracer())))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == []
