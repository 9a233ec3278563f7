"""Package hygiene: exported names resolve and no module is left unimported."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import kaczlab

# console entry point; importing the library must not pull the CLI in
ENTRY_POINTS = {"kaczlab.cli"}


def _module_names():
    return sorted(f"kaczlab.{info.name}" for info in pkgutil.iter_modules(kaczlab.__path__))


def test_every_all_entry_resolves():
    for name in _module_names():
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names undefined {missing}"


def test_import_loads_every_library_module():
    # a fresh interpreter, so modules other tests imported do not count
    src = Path(kaczlab.__file__).resolve().parent.parent
    code = "import sys, kaczlab; print('\\n'.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                            capture_output=True, text=True).stdout.split()
    unused = set(_module_names()) - ENTRY_POINTS - set(loaded)
    assert not unused, f"modules nothing imports: {sorted(unused)}"
