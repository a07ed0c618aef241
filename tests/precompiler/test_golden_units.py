"""Golden generated code: every registered app's precompiled unit, pinned.

For each app in the catalogue this suite pins the SHA-256 of the unit's
generated sources (``unit.sources``, one annotated generator per
transformed function) and of its save sets (``unit.saved_locals``: the
locals a checkpoint keeps at each checkpointable block).  A change to the
precompiler's analysis that moves either — a different suspending set, a
different label, a different liveness answer — fails here by app name.

The goldens in ``golden_units.json`` are regenerated only when the
generated code is *meant* to change::

    PYTHONPATH=src python tests/precompiler/test_golden_units.py --regen
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.api.registry import list_apps

GOLDEN_PATH = Path(__file__).with_name("golden_units.json")
#: The shipped app catalogue (other tests register apps of their own).
APPS = sorted(
    name for name, spec in list_apps().items()
    if spec.module.startswith("repro.apps.")
)


def _sha256(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def observe(app: str) -> dict:
    unit = importlib.import_module(list_apps()[app].module).unit()
    saved = {
        func_id: {str(pc): sorted(names) for pc, names in blocks.items()}
        for func_id, blocks in unit.saved_locals.items()
    }
    return {
        "sources_sha256": _sha256(unit.sources),
        "saved_locals_sha256": _sha256(saved),
    }


def test_golden_covers_exactly_the_catalogue():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == APPS


@pytest.mark.parametrize("app", APPS)
def test_generated_unit_matches_golden(app):
    golden = json.loads(GOLDEN_PATH.read_text())[app]
    assert observe(app) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    GOLDEN_PATH.write_text(
        json.dumps({app: observe(app) for app in APPS}, indent=1) + "\n"
    )
    print(f"wrote {len(APPS)} goldens to {GOLDEN_PATH}")
