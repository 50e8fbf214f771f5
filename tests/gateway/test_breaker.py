"""Circuit-breaker state machine and retry budget, on an injected clock."""

import pytest

from repro.gateway.breaker import BreakerState, CircuitBreaker, RetryBudget


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)


class TestClosed:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()
        assert breaker.retry_after() == 0.0

    def test_failures_below_threshold_stay_closed(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_success_resets_the_failure_count(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_threshold_failures_trip_it_open(self, breaker):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN


class TestOpen:
    def _trip(self, breaker):
        for _ in range(3):
            breaker.record_failure()

    def test_open_rejects_requests(self, breaker):
        self._trip(breaker)
        assert not breaker.allow()

    def test_retry_after_counts_down_with_the_clock(self, breaker, clock):
        self._trip(breaker)
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after() == pytest.approx(6.0)

    def test_half_opens_after_the_reset_timeout(self, breaker, clock):
        self._trip(breaker)
        clock.advance(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.retry_after() == 0.0


class TestHalfOpen:
    @pytest.fixture()
    def half_open(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        return breaker

    def test_grants_exactly_one_probe(self, half_open):
        assert half_open.allow()
        assert not half_open.allow()  # probe slot already taken

    def test_probe_success_closes(self, half_open):
        assert half_open.allow()
        half_open.record_success()
        assert half_open.state is BreakerState.CLOSED
        assert half_open.allow()

    def test_probe_failure_reopens_for_a_full_timeout(self, half_open, clock):
        assert half_open.allow()
        half_open.record_failure()
        assert half_open.state is BreakerState.OPEN
        assert half_open.retry_after() == pytest.approx(10.0)
        # and the cycle repeats: another cool-down earns another probe
        clock.advance(10.0)
        assert half_open.allow()

    def test_multiple_probe_slots_when_configured(self, clock):
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, half_open_probes=2, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()


class TestValidation:
    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=0.0)


class TestRetryBudget:
    def test_initial_tokens_allow_cold_retries(self):
        budget = RetryBudget(ratio=0.2, initial=2.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()  # dry: balance below one token

    def test_successes_refill_at_the_ratio(self):
        budget = RetryBudget(ratio=0.5, initial=0.0)
        assert not budget.try_spend()
        for _ in range(4):  # 4 successes * 0.5 = 2 tokens
            budget.deposit()
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_balance_is_capped(self):
        budget = RetryBudget(ratio=1.0, initial=0.0, cap=3.0)
        for _ in range(100):
            budget.deposit()
        assert budget.balance == pytest.approx(3.0)

    def test_refund_returns_an_unused_token(self):
        budget = RetryBudget(ratio=0.5, initial=1.0, cap=1.0)
        assert budget.try_spend()
        budget.refund()
        assert budget.balance == pytest.approx(1.0)
        budget.refund()
        assert budget.balance == pytest.approx(1.0)  # refunds respect the cap

    def test_initial_is_clamped_to_cap(self):
        assert RetryBudget(initial=50.0, cap=5.0).balance == pytest.approx(5.0)

    def test_rejects_negative_ratio(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=-0.1)
