"""Figure 6 — benchmark suite: annotation overhead and checking time.

For every benchmark of the paper's evaluation (navier-stokes, splay,
richards, raytrace, transducers, d3-arrays, tsc-checker) this bench checks
our nanoTS port with rsc, measures the wall-clock checking time
(pytest-benchmark), counts the annotation classes (T/M/R) and asserts that
the port verifies (0 errors) — the paper's headline claim is that all seven
benchmarks check with a roughly 1-annotation-per-5-lines overhead.

Run with::

    pytest benchmarks/bench_figure6.py --benchmark-only -q

or, for the formatted table (paper layout)::

    python benchmarks/harness.py figure6
"""

import pytest

from harness import (
    BENCHMARKS,
    PAPER_FIGURE6,
    check_benchmark,
    count_annotations,
    count_loc,
    source_of,
)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_benchmark_checks_clean(name, benchmark):
    """The port verifies; checking time is recorded by pytest-benchmark.

    A single round is enough: checking is deterministic and each run takes
    seconds (matching how the paper reports one wall-clock time per file)."""
    row = benchmark.pedantic(check_benchmark, args=(name,), rounds=1, iterations=1)
    assert row.ok, (f"{name} should verify but reported "
                    f"{row.counters['errors']} errors")


@pytest.mark.parametrize("name", BENCHMARKS)
def test_annotation_overhead_shape(name):
    """Annotation overhead stays in the ballpark the paper reports
    (about one annotation per five lines of code, Figure 6 / section 5.1)."""
    source = source_of(name)
    loc = count_loc(source)
    trivial, mutability, refinements = count_annotations(source)
    total = trivial + mutability + refinements
    assert total > 0, "every benchmark carries annotations"
    # the paper reports roughly 1 annotation per 5 LOC overall; allow a wide
    # band since our ports are smaller than the originals
    assert total <= loc, f"{name}: more annotations than lines is implausible"
    paper_loc, paper_t, paper_m, paper_r, _time = PAPER_FIGURE6[name]
    paper_ratio = (paper_t + paper_m + paper_r) / paper_loc
    our_ratio = total / loc
    assert our_ratio <= max(3 * paper_ratio, 0.9), (
        f"{name}: annotation overhead {our_ratio:.2f} is far above the "
        f"paper's {paper_ratio:.2f}")


def test_refinement_annotations_are_minority_overall():
    """Figure 6: only ~17% of all annotations actually mention refinements;
    the rest are TypeScript-like.  Check the same qualitative split holds."""
    total = refined = 0
    for name in BENCHMARKS:
        trivial, mutability, refinements = count_annotations(source_of(name))
        total += trivial + mutability + refinements
        refined += refinements
    assert total > 0
    assert refined / total < 0.65, (
        "refinement-bearing annotations should not dominate "
        f"(got {refined}/{total})")
