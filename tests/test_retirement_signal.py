"""Regression tests for the all-retired / zero-hit degeneracy signals.

Before these signals existed, an importance-sampling run whose
replications all retired (or never hit) before the horizon completed
silently and returned a vacuous estimate.  Now:

- retiring the *last* active replication before the horizon emits a
  :class:`~repro.exceptions.SimulationWarning` and an
  ``is.all_retired`` counter;
- an estimate finishing with zero overflow hits warns and counts
  ``is.zero_hit_estimates``;
- a batch where every replication *hits* (a successful outcome) must
  NOT warn — the estimator stops retiring once no survivors remain.
"""

import warnings

import numpy as np
import pytest

from repro.exceptions import SimulationWarning
from repro.observability import RunContext
from repro.processes.correlation import ExponentialCorrelation
from repro.simulation.importance import (
    TwistedBackground,
    is_overflow_probability,
)

CORR = ExponentialCorrelation(0.5)


class TestAllRetiredSignal:
    def test_warns_when_last_replication_retired_early(self):
        ctx = RunContext()
        bg = TwistedBackground(
            CORR, 20, twisted_mean=1.0, size=4, random_state=0,
            metrics=ctx,
        )
        bg.step()
        bg.retire(np.array([0, 1]))
        with pytest.warns(SimulationWarning, match="every replication"):
            bg.retire(np.array([2, 3]))
        entries = {e["name"]: e for e in ctx.snapshot()}
        assert entries["is.all_retired"]["value"] == 1.0
        assert entries["is.retired"]["value"] == 4.0

    def test_no_warning_while_survivors_remain(self):
        bg = TwistedBackground(
            CORR, 20, twisted_mean=1.0, size=4, random_state=0,
        )
        bg.step()
        with warnings.catch_warnings():
            warnings.simplefilter("error", SimulationWarning)
            bg.retire(np.array([0, 2]))
        assert bg.active_count == 2

    def test_no_warning_at_horizon(self):
        # Retirement at the final step is not "early": there is nothing
        # left to simulate, so no information is lost.
        bg = TwistedBackground(
            CORR, 2, twisted_mean=1.0, size=2, random_state=0,
        )
        bg.step()
        bg.step()
        with warnings.catch_warnings():
            warnings.simplefilter("error", SimulationWarning)
            bg.retire(np.array([0, 1]))

    def test_signal_works_without_metrics(self):
        bg = TwistedBackground(
            CORR, 20, twisted_mean=1.0, size=2, random_state=0,
        )
        bg.step()
        with pytest.warns(SimulationWarning):
            bg.retire(np.array([0, 1]))


class TestEstimatorOutcomes:
    def test_zero_hit_estimate_warns_and_counts(self):
        ctx = RunContext()
        with pytest.warns(SimulationWarning, match="0 overflow hits"):
            estimate = is_overflow_probability(
                CORR,
                lambda x: x + 0.01,  # arrivals far below service
                service_rate=5.0,
                buffer_size=50.0,
                horizon=10,
                twisted_mean=0.0,
                replications=20,
                random_state=1,
                metrics=ctx,
            )
        assert estimate.hits == 0
        assert estimate.probability == 0.0
        assert estimate.ess == 0.0
        entries = {e["name"]: e for e in ctx.snapshot()}
        assert entries["is.zero_hit_estimates"]["value"] == 1.0
        assert "is.weight" not in entries

    def test_full_success_batch_does_not_warn(self):
        # Every replication overflows almost immediately; the estimator
        # must not misreport this success as all-retired degeneracy.
        ctx = RunContext()
        with warnings.catch_warnings():
            warnings.simplefilter("error", SimulationWarning)
            estimate = is_overflow_probability(
                CORR,
                lambda x: x + 10.0,  # arrivals far above service
                service_rate=1.0,
                buffer_size=1.0,
                horizon=30,
                twisted_mean=0.0,
                replications=25,
                random_state=2,
                metrics=ctx,
            )
        assert estimate.hits == estimate.replications
        assert estimate.probability == pytest.approx(1.0)
        entries = {e["name"]: e for e in ctx.snapshot()}
        assert "is.all_retired" not in entries

    def test_partial_hits_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SimulationWarning)
            estimate = is_overflow_probability(
                CORR,
                lambda x: x + 2.0,
                service_rate=2.5,
                buffer_size=2.0,
                horizon=25,
                twisted_mean=1.0,
                replications=60,
                random_state=42,
            )
        assert 0 < estimate.hits < estimate.replications


class TestWarningLocation:
    """SimulationWarnings name the caller's line, not a library frame."""

    def test_zero_hit_through_leg_runner_names_this_file(self):
        from functools import partial

        from repro.simulation.parallel import run_legs

        leg = partial(
            is_overflow_probability,
            CORR,
            lambda x: x + 0.01,
            service_rate=5.0,
            buffer_size=50.0,
            horizon=10,
            twisted_mean=0.0,
            replications=20,
            random_state=1,
        )
        with pytest.warns(SimulationWarning, match="0 overflow hits") as rec:
            run_legs([leg], workers=1)
        assert [w.filename for w in rec] == [__file__]

    def test_retirement_warning_names_this_file(self):
        bg = TwistedBackground(
            CORR, 20, twisted_mean=1.0, size=2, random_state=0,
        )
        bg.step()
        with pytest.warns(SimulationWarning) as rec:
            bg.retire(np.array([0, 1]))
        assert [w.filename for w in rec] == [__file__]

    def test_shared_path_sweep_names_this_file(self):
        from repro.simulation.twist_search import search_twisted_mean

        with pytest.warns(SimulationWarning, match="0 overflow hits") as rec:
            search_twisted_mean(
                CORR,
                lambda x: x + 0.01,
                service_rate=5.0,
                buffer_size=50.0,
                horizon=10,
                twist_values=[0.0],
                replications=20,
                random_state=1,
                shared_paths=True,
            )
        assert rec and {w.filename for w in rec} == {__file__}
