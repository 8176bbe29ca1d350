"""Event-driven open-loop arrivals shared by both fleet tiers.

Each site offers load at ``site_ops_per_sec * load_multiplier`` times a
follow-the-sun factor ``1 + a*cos(2*pi*(t/P + phase))``, with the phase
taken from the site's longitude. Arrivals are generated one at a time,
per site, in continuous time:

* **Poisson** arrivals use exponential gaps at the site's *peak* rate and
  Lewis–Shedler thinning: a candidate at ``t`` is kept with probability
  ``rate(t) / peak``. With no diurnal modulation every candidate is kept
  and no thinning draw is made.
* **Deterministic** arrivals sit at fixed gaps of the *integrated* rate:
  the ``k``-th arrival is the instant the site's expected arrival count
  reaches ``k + 1/2``.

Every arrival is one kernel callback: it hands the arrival to the tier's
``arrive(site, rel_ms, rng)`` hook, draws the site's next arrival and
re-arms itself there. The driver therefore adds one kernel event per
arrival and costs O(arrivals), however sparse the load.

Determinism: each site consumes only its own ``rng``, in arrival order;
the per-site streams are taken at :meth:`ArrivalSource.start`, not at
construction, so a caller may swap them in between.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Sequence

from repro.sim.kernel import Environment

__all__ = ["ArrivalSource"]

_TWO_PI = 2.0 * math.pi

#: Bisection steps when inverting the integrated rate: the bracket is at
#: most a day wide, so 64 halvings reach float resolution.
_INVERT_STEPS = 64


class ArrivalSource:
    """Per-site arrival streams over one window, as kernel callbacks.

    ``spec`` supplies ``n_sites``, ``site_ops_per_sec``,
    ``load_multiplier``, ``arrival``, ``diurnal_amplitude`` and
    ``diurnal_period_ms`` (both fleet specs have them). ``phases`` holds
    each site's diurnal phase as a fraction of a day. Arrival times are
    relative to the ``t0`` given to :meth:`start`; arrivals stop at
    ``window_ms``.
    """

    def __init__(
        self,
        env: Environment,
        spec: Any,
        phases: Sequence[float],
        window_ms: float,
        arrive: Callable[[int, float, Any], None],
    ):
        self.env = env
        self.window_ms = window_ms
        self._arrive = arrive
        self._amplitude = spec.diurnal_amplitude
        # The diurnal factor is 1 + a*cos(omega*t + phase[site]).
        self._omega = _TWO_PI / spec.diurnal_period_ms
        self._phase = [_TWO_PI * phase for phase in phases]
        #: Mean gap between arrivals at diurnal factor 1.0, in ms.
        self._gap = 1000.0 / (spec.site_ops_per_sec * spec.load_multiplier)
        self._next = (
            self._next_thinned if spec.arrival == "poisson"
            else self._next_fixed
        )
        self._t0 = 0.0
        self._rngs: List[Any] = []
        #: Per site: the pending arrival (ms after t0), and for the
        #: deterministic process the index of that arrival.
        self._due = [0.0] * spec.n_sites
        self._count = [0] * spec.n_sites
        self._fire_cb = self._fire

    def start(self, t0: float, rngs: Sequence[Any]) -> None:
        """Arm every site's first arrival, counting time from ``t0``."""
        self._t0 = t0
        self._rngs = list(rngs)
        for site in range(len(self._due)):
            self._arm(site, 0.0)

    # -- the event -----------------------------------------------------------

    def _fire(self, site: int) -> None:
        rel = self._due[site]
        self._arrive(site, rel, self._rngs[site])
        self._arm(site, rel)

    def _arm(self, site: int, rel: float) -> None:
        nxt = self._next(site, rel)
        if nxt < self.window_ms:
            self._due[site] = nxt
            self.env.call_at(self._t0 + nxt, self._fire_cb, site)

    # -- next arrival --------------------------------------------------------

    def _next_thinned(self, site: int, rel: float) -> float:
        random = self._rngs[site].random
        log = math.log
        amplitude = self._amplitude
        # Candidates at the peak rate; a flat site keeps every one.
        peak = 1.0 + amplitude
        peak_gap = self._gap / peak
        if amplitude <= 0.0:
            return rel - peak_gap * log(1.0 - random())
        cos = math.cos
        omega = self._omega
        phase = self._phase[site]
        window = self.window_ms
        while True:
            rel -= peak_gap * log(1.0 - random())
            if rel >= window or (
                random() * peak < 1.0 + amplitude * cos(omega * rel + phase)
            ):
                return rel

    def _next_fixed(self, site: int, _rel: float) -> float:
        k = self._count[site]
        self._count[site] = k + 1
        target = (k + 0.5) * self._gap
        if self._amplitude <= 0.0:
            return target
        return self._invert(site, target)

    def _integrated(self, site: int, rel: float) -> float:
        """Expected arrivals by ``rel``, times the mean gap ``_gap``."""
        phase = self._phase[site]
        return rel + self._amplitude / self._omega * (
            math.sin(self._omega * rel + phase) - math.sin(phase)
        )

    def _invert(self, site: int, target: float) -> float:
        """The instant the integrated rate reaches ``target``, by
        bisection: the integrated rate stays within ``2*a/omega`` of
        ``rel``, so the root lies within that distance of ``target``."""
        slack = 2.0 * self._amplitude / self._omega
        lo = max(0.0, target - slack)
        hi = target + slack
        for _ in range(_INVERT_STEPS):
            mid = 0.5 * (lo + hi)
            if self._integrated(site, mid) < target:
                lo = mid
            else:
                hi = mid
        return hi
