"""Both demos print the narrative they printed when it was pinned, with
and without `python -O`, which strips the library's asserts."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each demo's stdout
DEMO_SHA256 = {
    "tour_lifting_properties":
        "2d6578aa62268994974bbbb845ccb08ce77255d6e20db941b1851a9733393a4f",
    "tour_spectra_reticulation":
        "442c269e3d0aec8204364bda2b26b57014332fbc5035684b487a754cbcd594b6",
}


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_stdout_is_pinned(demo, optimize):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *optimize, str(ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[demo]
