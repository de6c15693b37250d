"""Offline CLI steps must not load the HTTP/TLS stack; only `synth --online` uses it."""

import json
import subprocess
import sys
from pathlib import Path

import perioparse

NETWORK_MODULES = ("http.client", "ssl", "email.parser", "urllib.request", "concurrent.futures")

# A fresh interpreter: this one has already imported whatever other tests needed.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
network = json.loads(sys.argv[2])
loaded = {}
for name in ("perioparse", "perioparse.cli"):
    __import__(name)
    loaded[name] = [m for m in network if m in sys.modules]
print(json.dumps(loaded))
"""


def test_importing_the_cli_loads_no_network_stack():
    package_root = str(Path(perioparse.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, package_root, json.dumps(NETWORK_MODULES)],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == {"perioparse": [], "perioparse.cli": []}
