"""Every trace site of the benchmark names a callable in ``src/dualquant``.

The traced benchmark wraps functions at the names listed in
``bench/dqbench/layers.py::SITES``; a hot-path function renamed in the
library would otherwise surface only as a failed traced run.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))

from dqbench.layers import SITES  # noqa: E402


@pytest.mark.parametrize("where", sorted({site for site, _, _ in SITES}))
def test_trace_site_resolves(where):
    module_name, _, path = where.partition(":")
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().is_relative_to(ROOT / "src" / "dualquant")
    owner = module
    for part in path.split("."):
        assert hasattr(owner, part), f"{where}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
