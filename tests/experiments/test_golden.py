"""Golden-output regression suite: every experiment's rendered table.

Each experiment runs at smoke scale with seed 0 and its ``"table"``
string is diffed against ``tests/experiments/golden/<id>.txt``. The
fixtures lock the full number surface of the reproduction: any change
to the simulator, the workload models or the seed derivation shows up
as a readable table diff instead of a silent drift.

After an *intentional* change, refresh with::

    PYTHONPATH=src python -m pytest tests/experiments/test_golden.py \
        --update-golden

and commit the fixture diff alongside the code.
"""

import difflib
import pathlib

import pytest

from repro.experiments import EXPERIMENTS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SCALE = "smoke"
SEED = 0


def normalize(text: str) -> str:
    """Trailing whitespace never carries meaning in the tables."""
    return "\n".join(line.rstrip() for line in text.rstrip().splitlines())


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.txt"


def test_fixture_set_matches_registry():
    """No missing and no stale fixtures."""
    fixtures = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
    assert fixtures == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_golden(name, update_golden, golden_executor):
    result = EXPERIMENTS[name].run(
        scale=SCALE, seed=SEED, executor=golden_executor
    )
    table = normalize(result["table"])

    path = golden_path(name)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(table + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; generate it with "
            "pytest tests/experiments/test_golden.py --update-golden"
        )

    expected = normalize(path.read_text())
    if table != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                table.splitlines(),
                fromfile=f"golden/{name}.txt",
                tofile=f"{name} (current)",
                lineterm="",
            )
        )
        pytest.fail(
            f"{name} output drifted from its golden fixture "
            f"(scale={SCALE}, seed={SEED}). If the change is intentional, "
            f"rerun with --update-golden and commit the diff.\n{diff}"
        )
