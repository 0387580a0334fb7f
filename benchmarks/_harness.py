"""Shared helpers for the table/figure reproduction benchmarks."""

from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro import IDRQR, LDA, RLDA, SRDA, SolverConfig
from repro.eval import (
    figure_series,
    format_error_table,
    format_time_table,
    render_ascii_chart,
    run_experiment,
)
from repro.eval.figures import render_svg_chart

_SVG_DIR = Path(__file__).parent / "reports"


def paper_algorithms(srda_solver: str = "normal", srda_iters: int = 20) -> Dict:
    """The four algorithms of Section IV-B, with the paper's settings:
    α = 1 everywhere, SRDA closed-form on dense data / LSQR on sparse."""
    return {
        "LDA": lambda: LDA(),
        "RLDA": lambda: RLDA(alpha=1.0),
        "SRDA": lambda: SRDA(
            alpha=1.0,
            config=SolverConfig(solver=srda_solver),
            max_iter=srda_iters,
        ),
        "IDR/QR": lambda: IDRQR(alpha=1.0),
    }


def run_and_render(
    dataset,
    algorithms,
    train_sizes,
    n_splits,
    seed,
    error_title: str,
    time_title: str,
    figure_title: str,
    record,
    memory_budget_bytes: Optional[float] = None,
):
    """Run the sweep, render the paper's three artifacts, record them."""
    result = run_experiment(
        dataset,
        algorithms,
        train_sizes=train_sizes,
        n_splits=n_splits,
        seed=seed,
        memory_budget_bytes=memory_budget_bytes,
    )
    blocks = [
        format_error_table(result, title=error_title),
        format_time_table(result, title=time_title),
        render_ascii_chart(
            figure_series(result, "error"), f"{figure_title} — error rate (%)"
        ),
        render_ascii_chart(
            figure_series(result, "time"), f"{figure_title} — training time (s)"
        ),
    ]
    record("\n\n".join(blocks))

    # also emit proper SVG figures alongside the text reports
    _SVG_DIR.mkdir(exist_ok=True)
    slug = figure_title.lower().replace(" ", "_").replace("(", "").replace(
        ")", ""
    )
    render_svg_chart(
        figure_series(result, "error"),
        f"{figure_title} — error rate",
        xlabel="training size",
        ylabel="error (%)",
        path=_SVG_DIR / f"{slug}_error",
    )
    render_svg_chart(
        figure_series(result, "time"),
        f"{figure_title} — training time",
        xlabel="training size",
        ylabel="seconds",
        path=_SVG_DIR / f"{slug}_time",
    )
    return result


def assert_dense_paper_shape(result):
    """The qualitative claims shared by Tables III–VIII:

    1. regularized methods (RLDA, SRDA) beat plain LDA at the smallest
       training size — the overfitting story;
    2. SRDA is at least as accurate as IDR/QR at the largest size — "no
       theoretical relation to LDA" costs IDR/QR accuracy;
    3. SRDA trains faster than LDA and RLDA at the largest size — the
       efficiency story;
    4. every method improves (or holds) with more training data.
    """
    sizes = result.size_labels
    smallest, largest = sizes[0], sizes[-1]

    lda_small = result.cell("LDA", smallest).mean_error
    assert result.cell("SRDA", smallest).mean_error < lda_small
    assert result.cell("RLDA", smallest).mean_error < lda_small

    assert (
        result.cell("SRDA", largest).mean_error
        <= result.cell("IDR/QR", largest).mean_error + 0.01
    )

    assert result.cell("SRDA", largest).mean_time < result.cell(
        "LDA", largest
    ).mean_time
    assert result.cell("SRDA", largest).mean_time < result.cell(
        "RLDA", largest
    ).mean_time

    for algo in result.algorithm_names:
        first = result.cell(algo, smallest).mean_error
        last = result.cell(algo, largest).mean_error
        assert last <= first + 0.02, (algo, first, last)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
