"""Table I bench: Model B accuracy/runtime vs segment count.

The timing columns of the paper's Table I are exactly what
pytest-benchmark measures here; the error columns are regenerated from the
Fig. 5 sweep and printed.
"""

import pytest

from repro import Model1D, ModelA, ModelB
from repro.analysis import format_table
from repro.experiments import table1_segments
from repro.scenarios import run_scenario


@pytest.mark.parametrize("segments", [1, 20, 100, 500], ids=lambda n: f"B({n})")
def test_model_b_segment_scaling(benchmark, fig5_block, segments):
    """The paper's runtime column: Model B solve time vs segments."""
    stack, via, power = fig5_block
    model = ModelB(segments)
    result = benchmark(model.solve, stack, via, power)
    assert result.max_rise > 0


@pytest.mark.parametrize(
    "model", [ModelA(), Model1D()], ids=["model_a", "model_1d"]
)
def test_reference_models(benchmark, fig5_block, model):
    """Model A / 1-D rows of Table I (time column)."""
    stack, via, power = fig5_block
    benchmark(model.solve, stack, via, power)


def test_table1_reproduction(benchmark):
    """Regenerate Table I (errors vs FEM over the Fig. 5 sweep)."""
    result = benchmark.pedantic(
        lambda: run_scenario("table1", fem_resolution="medium", calibrate=False).result,
        rounds=1,
        iterations=1,
    )
    print()
    print(table1_segments.TITLE)
    print(format_table(result.metadata["table_rows"]))
    errs = [
        result.errors[f"model_b({n})"].avg_error for n in (1, 20, 100, 500)
    ]
    assert errs[0] > errs[2]  # accuracy improves with segments
