"""Importing the CLI loads no package beyond numpy, damlink and the standard library.

Every run starts with that import, so a new third-party import anywhere the
CLI reaches adds its load time to every run's start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _top_level_packages(statement: str) -> set[str]:
    """Top-level names in ``sys.modules`` after ``statement`` in a fresh interpreter."""
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return set(json.loads(done.stdout))


def test_cli_import_loads_nothing_beyond_numpy():
    baseline = _top_level_packages("import numpy")
    loaded = _top_level_packages("import damlink.cli")
    extra = loaded - baseline - set(sys.stdlib_module_names) - {"damlink"}
    assert not extra, f"importing damlink.cli also loads {sorted(extra)}"
