"""Tests for the discrete-event engine."""

import math
import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append("b"))
        engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.schedule_at(9.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        engine = Engine()
        fired = []
        for name in ("first", "second", "third"):
            engine.schedule_at(3.0, lambda n=name: fired.append(n))
        engine.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(7.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [7.5]
        assert engine.now == 7.5

    def test_schedule_relative_delay(self):
        engine = Engine()
        seen = []
        engine.schedule_at(2.0, lambda: engine.schedule(3.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [5.0]

    def test_rejects_past_events(self):
        engine = Engine()
        engine.schedule_at(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteTimes:
    """A NaN key breaks the heap invariant and an infinite one never
    fires, so every entry point rejects them before touching the heap."""

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_schedule_rejects(self, value):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(value, lambda: None)
        assert engine.pending == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_schedule_at_rejects(self, value):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule_at(value, lambda: None)
        assert engine.pending == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_schedule_sequence_rejects(self, value):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule_sequence([1.0, value], lambda i: None)
        assert engine.pending == 0


class TestScheduleSequence:
    def test_items_fire_in_order_with_their_index(self):
        engine = Engine()
        fired = []
        engine.schedule_sequence(
            [1.0, 2.0, 2.0, 4.0], lambda i: fired.append((i, engine.now))
        )
        assert engine.pending == 4
        assert engine.run() == 4
        assert fired == [(0, 1.0), (1, 2.0), (2, 2.0), (3, 4.0)]
        assert engine.events_run == 4
        assert engine.pending == 0

    def test_empty_sequence_schedules_nothing(self):
        engine = Engine()
        engine.schedule_sequence([], lambda i: pytest.fail("fired"))
        assert engine.pending == 0
        assert engine.run() == 0

    def test_rejects_decreasing_times(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule_sequence([1.0, 3.0, 2.0], lambda i: None)
        assert engine.pending == 0

    def test_rejects_first_time_in_the_past(self):
        engine = Engine()
        engine.run_until(5.0)
        with pytest.raises(SimulationError):
            engine.schedule_sequence([4.0, 6.0], lambda i: None)
        assert engine.pending == 0
        engine.schedule_sequence([5.0, 6.0], lambda i: None)
        assert engine.run() == 2

    def test_compaction_counts_only_heap_entries(self):
        """Unfired sequence items are not heap entries, so they do not
        dilute the garbage ratio that triggers compaction."""
        engine = Engine(compact_min_garbage=64, compact_garbage_ratio=1.0)
        engine.schedule_sequence([float(t) for t in range(1_000)], lambda i: None)
        handles = [engine.schedule_at(5_000.0, lambda: None) for _ in range(100)]
        for handle in handles[:80]:
            handle.cancel()
        assert engine.compactions == 1
        assert engine.pending == 1_000 + 20
        assert engine.run() == 1_020


class TestScheduleSequenceDifferential:
    """``schedule_sequence`` against per-item ``schedule_at``.

    A seeded workload registers point events before, between and after
    two sequences whose times tie with each other and with the point
    events; every callback schedules follow-ups and often cancels a
    random live follow-up.  Built once with sequences and once with one
    ``schedule_at`` per item, the two engines must fire the same
    callbacks in the same order at the same clock, with the same
    ``events_run`` and ``pending`` after every step.
    """

    GRID = [0.5 * k for k in range(12)]

    def _plan(self, seed):
        rng = random.Random(seed)
        ties = lambda n: sorted(rng.choice(self.GRID) for _ in range(n))  # noqa: E731
        return {
            "before": [rng.choice(self.GRID) for _ in range(6)],
            "a": ties(40),
            "between": [rng.choice(self.GRID) for _ in range(6)],
            "b": ties(25),
            "after": [rng.choice(self.GRID) for _ in range(6)],
            "cutoffs": sorted(rng.choice(self.GRID) for _ in range(3)),
        }

    def _drive(self, engine, plan, seed, bulk):
        rng = random.Random(seed + 1000)
        log = []
        live = []

        def fire(tag):
            log.append((tag, engine.now, engine.events_run, engine.pending))
            for _ in range(rng.randrange(3)):
                delay = rng.choice([0.0, 0.5, rng.uniform(0.1, 3.0)])
                follow = ("f", len(log))
                live.append(engine.schedule(delay, lambda t=follow: fire(t)))
            if live and rng.random() < 0.6:
                live.pop(rng.randrange(len(live))).cancel()

        def points(name):
            for k, t in enumerate(plan[name]):
                engine.schedule_at(t, lambda t=(name, k): fire(t))

        def sequence(name):
            times = plan[name]
            if bulk:
                engine.schedule_sequence(times, lambda i: fire((name, i)))
            else:
                for i, t in enumerate(times):
                    engine.schedule_at(t, lambda t=(name, i): fire(t))

        points("before")
        sequence("a")
        points("between")
        sequence("b")
        points("after")
        states = []
        for cutoff in plan["cutoffs"]:
            engine.run_until(cutoff)
            states.append(("cut", engine.now, engine.events_run, engine.pending))
        while engine.step():
            states.append((engine.now, engine.events_run, engine.pending))
        return log, states

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "compaction",
        [
            {"compact_min_garbage": 0, "compact_garbage_ratio": 0.0},
            {"compact_min_garbage": 10**9},
        ],
        ids=["every-cancel", "disabled"],
    )
    def test_matches_per_item_schedule_at(self, seed, compaction):
        plan = self._plan(seed)
        bulk_engine = Engine(**compaction)
        reference_engine = Engine(compact_min_garbage=10**9)
        bulk = self._drive(bulk_engine, plan, seed, bulk=True)
        reference = self._drive(reference_engine, plan, seed, bulk=False)
        assert bulk == reference
        fired = {tag[0] for tag, *_ in bulk[0]}
        assert {"a", "b", "before", "between", "after", "f"} <= fired
        assert bulk_engine.events_run == reference_engine.events_run
        if compaction["compact_min_garbage"] == 0:
            assert bulk_engine.compactions > 0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = Engine()
        fired = []
        handle = engine.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.run() == 0

    def test_pending_excludes_cancelled(self):
        engine = Engine()
        h1 = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        h1.cancel()
        assert engine.pending == 1


class TestRunControl:
    def test_run_returns_event_count(self):
        engine = Engine()
        for t in range(5):
            engine.schedule_at(float(t), lambda: None)
        assert engine.run() == 5
        assert engine.events_run == 5

    def test_run_with_max_events_stops_early(self):
        engine = Engine()
        for t in range(5):
            engine.schedule_at(float(t), lambda: None)
        assert engine.run(max_events=2) == 2
        assert engine.pending == 3

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_run_until_executes_due_events_only(self):
        engine = Engine()
        fired = []
        engine.schedule_at(1.0, lambda: fired.append(1))
        engine.schedule_at(5.0, lambda: fired.append(5))
        engine.run_until(3.0)
        assert fired == [1]
        assert engine.now == 3.0
        engine.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_without_events(self):
        engine = Engine()
        engine.run_until(42.0)
        assert engine.now == 42.0


class TestHeapHygiene:
    """Live-event accounting and automatic heap compaction."""

    def test_pending_decrements_on_cancel(self):
        engine = Engine()
        handles = [engine.schedule_at(float(t), lambda: None) for t in range(10)]
        assert engine.pending == 10
        for h in handles[:4]:
            h.cancel()
        assert engine.pending == 6

    def test_double_cancel_counted_once(self):
        engine = Engine()
        h = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        h.cancel()
        h.cancel()
        h.cancel()
        assert engine.pending == 1

    def test_cancel_after_fire_is_noop(self):
        engine = Engine()
        h = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.step()
        h.cancel()  # already fired: must not corrupt the live count
        assert engine.pending == 1
        assert engine.run() == 1

    def test_garbage_tracks_cancelled_entries(self):
        engine = Engine()
        handles = [engine.schedule_at(float(t), lambda: None) for t in range(8)]
        assert engine.garbage == 0
        for h in handles[:3]:
            h.cancel()
        assert engine.garbage == 3
        engine.run()
        assert engine.garbage == 0

    def test_auto_compaction_triggers_and_shrinks_heap(self):
        engine = Engine(compact_min_garbage=4, compact_garbage_ratio=0.5)
        keep = [engine.schedule_at(100.0 + t, lambda: None) for t in range(4)]
        drop = [engine.schedule_at(50.0 + t, lambda: None) for t in range(8)]
        for h in drop:
            h.cancel()
        assert engine.compactions >= 1
        # Compaction purged the garbage present when it fired; only
        # cancellations after the last compaction can remain.
        assert engine.garbage < len(drop)
        assert engine.pending == len(keep)

    def test_compaction_disabled_by_high_threshold(self):
        engine = Engine(compact_min_garbage=10_000)
        for t in range(100):
            engine.schedule_at(float(t) + 1000.0, lambda: None).cancel()
        assert engine.compactions == 0
        assert engine.garbage == 100

    def test_explicit_compact_preserves_firing_order(self):
        engine = Engine(compact_min_garbage=10_000)
        fired = []
        for t in (5.0, 1.0, 9.0, 3.0, 7.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.schedule_at(4.0, lambda: None).cancel()
        engine.compact()
        assert engine.compactions == 1
        engine.run()
        assert fired == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_invalid_compaction_parameters_rejected(self):
        with pytest.raises(SimulationError):
            Engine(compact_min_garbage=-1)
        with pytest.raises(SimulationError):
            Engine(compact_garbage_ratio=-0.5)


class TestCompactionEquivalence:
    """Property: compaction never changes observable behaviour.

    Drives a randomised schedule/cancel workload through two engines —
    one compacting after every cancellation, one never compacting —
    and checks the event firing sequences are identical.
    """

    def _run_workload(self, engine, seed):
        import random

        rng = random.Random(seed)
        fired = []
        live = []

        def make_cb(tag):
            def cb():
                fired.append((round(engine.now, 6), tag))
                # Schedule a few follow-ups and cancel a random victim,
                # mirroring the server's cancel-and-rearm churn.
                for _ in range(rng.randrange(3)):
                    live.append(
                        engine.schedule(rng.uniform(0.1, 20.0), make_cb(len(fired)))
                    )
                if live and rng.random() < 0.6:
                    live.pop(rng.randrange(len(live))).cancel()

            return cb

        for i in range(40):
            live.append(engine.schedule_at(rng.uniform(0.0, 10.0), make_cb(-i)))
        engine.run(max_events=600)
        return fired, engine.events_run

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_always_vs_never_compacting_identical(self, seed):
        eager = Engine(compact_min_garbage=0, compact_garbage_ratio=0.0)
        lazy = Engine(compact_min_garbage=10**9)
        fired_eager, count_eager = self._run_workload(eager, seed)
        fired_lazy, count_lazy = self._run_workload(lazy, seed)
        assert fired_eager == fired_lazy
        assert count_eager == count_lazy
        assert eager.compactions > 0
        assert lazy.compactions == 0
