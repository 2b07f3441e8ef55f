import hashlib
import json
from pathlib import Path

import pytest

import opcert
from opcert.certify import save_certificate
from opcert.freealg import FreeAlgebra
from opcert.rewrite import CompletionEngine

# the problem files bundled with the imported package, which is ``src/``
# unless a run puts an installed copy first on the path
FIXTURES = Path(opcert.__file__).parent / "fixtures"

# sha256 of every file ``opcert certify <fixture> --output`` writes; a change
# that alters certificates on purpose updates this file and says why
CERT_SHA256 = json.loads((Path(__file__).parent / "certificate_sha256.json")
                         .read_text(encoding="utf-8"))


def assert_certificate_file_unchanged(cert, filename, tmp_path):
    """The file ``save_certificate`` writes for ``cert`` has the recorded
    sha256 of ``filename`` (``<problem>.<claim>.cert``)."""
    path = tmp_path / filename
    save_certificate(cert, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        CERT_SHA256[filename], filename


@pytest.fixture
def recorded_engines(monkeypatch):
    """The list of the completion engines ``certify`` creates during the
    test; each counts the elements it retires in ``retired``."""
    engines = []

    class Recording(CompletionEngine):
        def __init__(self, *args, **kwargs):
            self.retired = 0
            super().__init__(*args, **kwargs)
            engines.append(self)

        def _retire(self, idx):
            self.retired += 1
            super()._retire(idx)

    monkeypatch.setattr(opcert.certify, "CompletionEngine", Recording)
    return engines


@pytest.fixture
def werner_algebra():
    A = FreeAlgebra()
    for n in ("a", "a⁻", "b", "b⁻", "i"):
        A.add(n)
    return A


@pytest.fixture
def werner_system(werner_algebra):
    A = werner_algebra
    F = [A.parse(s) for s in (
        "a·a⁻·a - a",
        "b·b⁻·b - b",
        "b·b⁻·(i - a⁻·a) - i + a⁻·a",
        "a·i - a",
        "i·a⁻ - a⁻",
        "i·b - b",
        "b⁻·i - b⁻",
        "i·i - i",
    )]
    f = A.parse("a·b·b⁻·a⁻·a·b - a·b")
    return A, F, f


@pytest.fixture
def paired_algebra():
    A = FreeAlgebra()
    for n in ("a", "b", "c"):
        A.add_pair(n)
    return A
