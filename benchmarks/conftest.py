"""Shared infrastructure for the experiment benchmarks.

Every experiment regenerates its paper artifact (figure or lesson
quantification) as a text table. The ``report`` fixture prints it and
persists it under ``benchmarks/results/`` so EXPERIMENTS.md can cite the
exact output of the last run.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Callable: report(experiment_id, text) -> writes + prints the table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(experiment_id: str, text: str) -> None:
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n")
        print(f"\n{'=' * 72}\n{experiment_id}\n{'=' * 72}\n{text}")

    return _report
