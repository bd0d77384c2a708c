"""Import layering: one import path per name, and no layer loads another
it does not use.

Every name is imported from the module that defines it; only ``repro``
(the paper's library API) and ``repro.service`` (the serving API)
re-export.  The server therefore never loads the experiment runners,
the experiment CLI loads a figure module only once one is asked for,
and the paper library never loads the HTTP tier.  Each import runs in a
fresh interpreter, so modules the test process already holds cannot
mask a load.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: The two package ``__init__`` files that may re-export names.
REEXPORTING = {"repro/__init__.py", "repro/service/__init__.py"}


def _loaded_modules(statement: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    probe = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(completed.stdout)


def test_server_cli_loads_no_experiment_module():
    loaded = _loaded_modules("import repro.service.cli")
    assert "repro.service.cli" in loaded
    assert [m for m in loaded if m.startswith("repro.experiments")] == []


def test_experiment_cli_loads_no_figure_module():
    loaded = _loaded_modules("import repro.experiments.cli")
    assert "repro.experiments.cli" in loaded
    runners = [
        m for m in loaded
        if m.startswith(("repro.experiments.figure", "repro.experiments.table2"))
    ]
    assert runners == []


def test_library_loads_no_service_module():
    loaded = _loaded_modules("import repro")
    assert "repro.core.adaptive_grid" in loaded
    assert [m for m in loaded if m.startswith("repro.service")] == []


@pytest.mark.parametrize(
    "init",
    sorted(
        str(path.relative_to(SRC)).replace(os.sep, "/")
        for path in (SRC / "repro").rglob("__init__.py")
    ),
)
def test_only_the_api_packages_reexport(init):
    tree = ast.parse((SRC / init).read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    if init in REEXPORTING:
        assert imports, f"{init} is an API package and re-exports names"
    else:
        assert imports == [], f"{init} imports; import from the defining module"
