"""Circuit breakers and the gateway's global retry budget.

Per-replica breakers keep a flapping or dead replica from soaking up
request attempts: after enough consecutive failures the breaker *opens*
and the replica is skipped outright; after a cool-down one *half-open*
probe is let through, and its outcome decides between closing the breaker
and re-opening it. The retry budget bounds retry amplification across the
whole gateway — retries spend from a bucket that only refills as normal
requests succeed, so a full outage degrades to fast failure instead of a
retry storm.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Callable


class BreakerState(str, Enum):
    """The classic three states."""

    CLOSED = "CLOSED"
    OPEN = "OPEN"
    HALF_OPEN = "HALF_OPEN"


class CircuitBreaker:
    """Consecutive-failure breaker with a timed half-open probe.

    Thread-safe; the clock is injectable so the state machine is testable
    without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 10.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0

    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """Whether a request may be sent through this breaker now.

        In half-open state each ``True`` grants one probe slot; callers
        must report the probe's outcome via :meth:`record_success` /
        :meth:`record_failure` to release it.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN and self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probes_in_flight = 0
            self._state = BreakerState.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
                return
            self._failures += 1
            if self._state is BreakerState.CLOSED and self._failures >= self.failure_threshold:
                self._trip()

    @property
    def probes_in_flight(self) -> int:
        """Half-open probe permits granted and not yet answered."""
        with self._lock:
            return self._probes_in_flight

    def retry_after(self) -> float:
        """Seconds until an open breaker admits its next probe (0 otherwise)."""
        with self._lock:
            self._maybe_half_open()
            if self._state is not BreakerState.OPEN:
                return 0.0
            return max(0.0, self._opened_at + self.reset_timeout - self._clock())

    # ----------------------------------------------------------- internals

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._probes_in_flight = 0

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
            self._probes_in_flight = 0


class RetryBudget:
    """A token bucket that pays for retries out of successful traffic.

    Every successful first attempt deposits ``ratio`` tokens (so a steady
    20 %-of-traffic retry rate is sustainable by default); every retry
    withdraws one token. ``initial`` tokens let a cold gateway retry at
    all; the balance is capped so long quiet periods cannot bank an
    unbounded burst.
    """

    def __init__(self, ratio: float = 0.2, initial: float = 10.0, cap: float = 100.0):
        if ratio < 0:
            raise ValueError("ratio must be >= 0")
        self.ratio = ratio
        self.cap = cap
        self._lock = threading.Lock()
        self._balance = min(initial, cap)

    @property
    def balance(self) -> float:
        with self._lock:
            return self._balance

    def deposit(self) -> None:
        """Credit the budget for one successful (non-retry) request."""
        with self._lock:
            self._balance = min(self.cap, self._balance + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one token for a retry; False when the budget is dry."""
        with self._lock:
            if self._balance < 1.0:
                return False
            self._balance -= 1.0
            return True

    def refund(self) -> None:
        """Return the token of a retry that found no replica to go to."""
        with self._lock:
            self._balance = min(self.cap, self._balance + 1.0)
