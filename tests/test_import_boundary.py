"""The test oracle stays off a serving node.

``repro.testing`` holds reference implementations (the row-at-a-time
query oracle, the crash kit) that tests compare the engine against.  A
server process must not import them: an oracle on the serving path is
an oracle compared with itself.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_server_does_not_import_the_oracle():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.net.server\n"
            "print(*sorted(m for m in sys.modules "
            "if m.startswith('repro.testing') or m == 'repro.query.naive'))",
        ],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == []
