"""The scale smoke's check refuses a recovery that restarted from scratch.

``benchmarks/scale_smoke.py`` runs 256 ranks with the kill placed after
the first wave commits (CI runs it; about 8 s).  Here the same script is
run with the placement it used to have — 10 iterations, kill at t = 0.03,
before any wave can commit — and must exit 1 for both reasons.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "scale_smoke.py"


def _load_smoke():
    spec = importlib.util.spec_from_file_location("scale_smoke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kill_before_any_commit_fails_the_smoke(monkeypatch, capsys):
    smoke = _load_smoke()
    monkeypatch.setattr(smoke, "ITERATIONS", 10)
    monkeypatch.setattr(smoke, "KILL_TIME", 0.03)
    assert smoke.main() == 1
    err = capsys.readouterr().err
    assert "no checkpoint wave was committed" in err
    assert "final attempt restarted from scratch" in err
