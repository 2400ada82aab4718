"""Shared configuration for the benchmark harnesses.

Every bench regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index) and prints the reproduced rows/series, while
pytest-benchmark records the wall-clock time of the underlying campaign.

Campaign sizes are controlled by environment variables:

* ``REPRO_RUNS=<n>``  — measurement runs per campaign (default 300; the
  paper uses 1000),
* ``REPRO_SCALE=<f>`` — scale factor on workload iteration counts.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentSettings


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment(id): marks a bench as reproducing one paper artefact"
    )


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Campaign settings shared by all benches (env-var driven)."""
    return ExperimentSettings.from_env()


@pytest.fixture(scope="session")
def reduced_settings(settings) -> ExperimentSettings:
    """Half-size settings for the most expensive sweeps (160 KB kernel, ablations)."""
    from dataclasses import replace

    return replace(settings, runs=max(settings.runs // 2, 50))


def run_once(benchmark, function):
    """Time ``function`` exactly once (campaigns are far too slow to repeat)."""
    return benchmark.pedantic(function, rounds=1, iterations=1)
