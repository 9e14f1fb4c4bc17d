"""Every name a module exports resolves, and the package needs only the
standard library."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import entrank


def test_every_exported_name_resolves():
    modules = [entrank] + [
        importlib.import_module(f"entrank.{info.name}")
        for info in pkgutil.iter_modules(entrank.__path__)
    ]
    missing = [
        f"{m.__name__}.{name}"
        for m in modules
        for name in getattr(m, "__all__", ())
        if not hasattr(m, name)
    ]
    assert not missing


# Modules that ``site`` or a ``.pth`` file loaded before the snapshot are
# not the package's; only those its import adds count.  ``multiprocessing``
# files ``__main__`` again as ``__mp_main__``, which is no new module.
_NEW_TOP_LEVEL_MODULES = """
import sys
before = set(sys.modules)
import entrank, entrank.cli
new = {name.partition(".")[0] for name, module in sys.modules.items()
       if name not in before and module is not sys.modules["__main__"]}
print(" ".join(sorted(new)))
"""


def test_package_imports_only_the_standard_library(tmp_path):
    package_root = str(Path(entrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NEW_TOP_LEVEL_MODULES],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert "entrank" in new
    assert new - set(sys.stdlib_module_names) - {"entrank"} == set()
