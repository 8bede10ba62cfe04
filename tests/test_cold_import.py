"""Meta-test: every ``repro.*`` module imports as the *first* ``repro``
import of an interpreter.

The suite itself cannot see an import cycle: by the time a test runs,
``conftest.py`` has imported half the package in an order that happens
to work.  ``repro.replication`` was unimportable on its own for eleven
PRs that way (``replication.node -> stream.opensearch -> stream/__init__
-> tivan -> replication.store -> replication.node``).
"""

import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

# One ``python -c`` per module is the literal check, and would pay the
# interpreter's and numpy/scipy's start-up 120-odd times over.  The driver
# below imports only those third-party packages, then forks once per
# module: each child is an interpreter in which no ``repro`` module exists
# yet, and imports exactly one.  Package ``__init__``s are lazy, so a child
# loads that module and what it imports, not its package's siblings: the
# driver takes ~8 s for 120 modules, where eager ``__init__``s took ~24 s.
_DRIVER = textwrap.dedent(
    """
    import os, sys, traceback
    import networkx, numpy, scipy.optimize, scipy.sparse.linalg  # noqa: F401

    assert not any(m.split(".")[0] == "repro" for m in sys.modules)
    failed = 0
    for name in sys.argv[1:]:
        pid = os.fork()
        if pid == 0:
            try:
                __import__(name)
            except BaseException:
                sys.stderr.write(f"--- import {name}\\n{traceback.format_exc()}")
                os._exit(1)
            os._exit(0)
        failed += os.waitpid(pid, 0)[1] != 0
    sys.exit(1 if failed else 0)
    """
)


def _module_names() -> list[str]:
    return [
        name for _finder, name, _ispkg in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        )
    ]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_every_module_imports_first():
    names = _module_names()
    assert "repro.replication.node" in names and len(names) > 100
    src = str(Path(repro.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, *names],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
