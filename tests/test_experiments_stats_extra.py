"""Extra coverage for experiment-layer plumbing not exercised by the
slow campaign tests: result rendering, Table 7 row math, and the
shared executor builder."""

import pytest

from repro.experiments import (
    Table5Result,
    Table5Row,
    Table7Result,
    Table7Row,
)
from repro.execution import (
    MECHANISMS,
    ClosureXExecutor,
    ForkServerExecutor,
    FreshProcessExecutor,
    NaivePersistentExecutor,
    build_executor,
)
from repro.sim_os import Kernel


class TestBuildExecutor:
    def test_all_mechanisms_constructible(self):
        expected = {
            "closurex": ClosureXExecutor,
            "forkserver": ForkServerExecutor,
            "persistent": NaivePersistentExecutor,
            "fresh": FreshProcessExecutor,
        }
        for mechanism in MECHANISMS:
            executor = build_executor("giftext", mechanism, Kernel())
            assert isinstance(executor, expected[mechanism])
            assert executor.mechanism == mechanism

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            build_executor("giftext", "qemu", Kernel())


class TestTable5Rendering:
    def test_render_contains_rows_and_average(self):
        result = Table5Result(
            rows=[
                Table5Row("alpha", 2e9, 1e9, 2.0, 0.01),
                Table5Row("beta", 9e9, 3e9, 3.0, 0.20),
            ],
            average_speedup=2.5,
        )
        text = result.render()
        assert "alpha" in text and "beta" in text
        assert "2.00" in text and "3.00" in text
        assert "2.50" in text  # average row
        assert "2.00B" in text  # count formatting


class TestTable7RowMath:
    def _row(self, cx, fk, trials=5):
        return Table7Row(
            benchmark="t", bug_id="b", bug_type="Bug",
            closurex_times=cx, aflpp_times=fk, trials=trials,
        )

    def test_cell_formats(self):
        row = self._row([1.0, 3.0], [])
        assert row.cell("closurex") == "2.000 (2)"
        assert row.cell("aflpp") == "- (0/5)"

    def test_aggregate_speedup_uses_shared_bugs_only(self):
        result = Table7Result(
            rows=[
                self._row([1.0], [2.0]),       # 2x
                self._row([1.0], []),          # excluded (not shared)
                self._row([2.0], [8.0]),       # 4x
            ],
            trials=5,
        )
        assert result.aggregate_speedup() == pytest.approx(3.0)

    def test_aggregate_speedup_none_when_no_overlap(self):
        result = Table7Result(rows=[self._row([1.0], [])], trials=5)
        assert result.aggregate_speedup() is None

    def test_finding_counts(self):
        result = Table7Result(
            rows=[self._row([1.0, 2.0], [3.0]), self._row([], [1.0, 1.0])],
            trials=5,
        )
        assert result.finding_counts() == (2, 3)
