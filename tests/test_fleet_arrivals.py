"""The fleet tiers' event-driven arrival source, tested statistically.

The arrival streams are seeded, so every figure below is fixed for the
seed; the bounds are the 0.1% tails of each test's distribution, which a
correct source clears on most seeds and a wrong rate, gap law or hotspot
rule misses by far.
"""

import math
from types import SimpleNamespace

from repro.fleet import FleetFullSpec, FleetStation
from repro.fleet import full as fleet_full
from repro.fleet.arrivals import ArrivalSource
from repro.sim import Environment, seeded_rng
from repro.workloads.stats import LatencyRecorder

#: Standard normal quantile of 0.999.
_Z999 = 3.090


def _spec(**overrides):
    base = dict(
        n_sites=4, site_ops_per_sec=100.0, load_multiplier=1.0,
        arrival="poisson", diurnal_amplitude=0.6, diurnal_period_ms=20000.0,
    )
    return SimpleNamespace(**{**base, **overrides})


def _arrivals(spec, window_ms, seed=5, phases=None):
    """Every site's arrival instants (ms), and the kernel events spent."""
    env = Environment()
    phases = phases or [i / spec.n_sites for i in range(spec.n_sites)]
    times = [[] for _ in range(spec.n_sites)]
    source = ArrivalSource(
        env, spec, phases, window_ms,
        lambda site, rel, _rng: times[site].append(rel),
    )
    before = env._seq
    source.start(0.0, [seeded_rng(seed, f"s{i}") for i in range(spec.n_sites)])
    env.run()
    return times, env._seq - before, phases


def _integral(spec, phase, a, b):
    """Expected arrivals of one site over [a, b) ms."""
    rate = spec.site_ops_per_sec * spec.load_multiplier / 1000.0
    w = 2.0 * math.pi / spec.diurnal_period_ms
    amp = spec.diurnal_amplitude
    return rate * (
        (b - a)
        + amp / w * (math.sin(w * b + 2 * math.pi * phase)
                     - math.sin(w * a + 2 * math.pi * phase))
    )


def _chi2_upper(df):
    """Wilson–Hilferty 0.999 quantile of chi-square with ``df``."""
    k = 2.0 / (9.0 * df)
    return df * (1.0 - k + _Z999 * math.sqrt(k)) ** 3


def test_window_counts_follow_the_integrated_diurnal_rate():
    spec = _spec()
    window, width = 40000.0, 1000.0
    times, _, phases = _arrivals(spec, window)
    mean = spec.site_ops_per_sec * width / 1000.0
    chi2 = flat = 0.0
    cells = 0
    for site, stamps in enumerate(times):
        counts = [0] * int(window / width)
        for t in stamps:
            counts[int(t // width)] += 1
        for w, observed in enumerate(counts):
            expected = _integral(spec, phases[site], w * width,
                                 (w + 1) * width)
            chi2 += (observed - expected) ** 2 / expected
            flat += (observed - mean) ** 2 / mean
            cells += 1
    assert chi2 < _chi2_upper(cells)
    # The same counts against a flat rate miss by far: the modulation
    # is really there.
    assert flat > 5 * _chi2_upper(cells)


def test_flat_gaps_are_exponential():
    spec = _spec(diurnal_amplitude=0.0, site_ops_per_sec=50.0)
    times, _, _ = _arrivals(spec, 20000.0)
    gaps = []
    for stamps in times:
        gaps += [b - a for a, b in zip([0.0] + stamps, stamps)]
    gaps.sort()
    n = len(gaps)
    rate = spec.site_ops_per_sec / 1000.0
    d = max(
        max(abs((i + 1) / n - cdf), abs(cdf - i / n))
        for i, cdf in ((i, 1.0 - math.exp(-rate * g))
                       for i, g in enumerate(gaps))
    )
    # Kolmogorov–Smirnov, alpha = 0.001.
    assert d < 1.95 / math.sqrt(n)
    assert abs(n - rate * 20000.0 * spec.n_sites) < _Z999 * math.sqrt(n)


def test_one_kernel_event_per_arrival():
    for amplitude in (0.0, 0.6):
        times, events, _ = _arrivals(_spec(diurnal_amplitude=amplitude),
                                     10000.0)
        assert events == sum(len(stamps) for stamps in times)


def test_deterministic_arrivals_sit_on_the_integrated_rate():
    spec = _spec(arrival="deterministic")
    window = 30000.0
    times, _, phases = _arrivals(spec, window)
    for site, stamps in enumerate(times):
        assert stamps == sorted(stamps)
        # The k-th arrival is where the expected count reaches k + 1/2.
        for k in (0, len(stamps) // 3, len(stamps) - 1):
            assert abs(_integral(spec, phases[site], 0.0, stamps[k])
                       - (k + 0.5)) < 1e-6
        expected = _integral(spec, phases[site], 0.0, window)
        assert abs(len(stamps) - expected) <= 1.0


def test_flat_deterministic_gaps_are_exact():
    spec = _spec(arrival="deterministic", diurnal_amplitude=0.0,
                 site_ops_per_sec=200.0)
    times, _, _ = _arrivals(spec, 100.0)
    assert times[0] == [2.5 + 5.0 * k for k in range(20)]


# -- the full-stack tier's per-arrival choices --------------------------------


class _StubStation:
    def __init__(self):
        self.issued = []

    def issue(self, sess, key_index, is_write):
        self.issued.append((sess, key_index, is_write))


def _stub_engine(**overrides):
    spec = FleetFullSpec(**{
        **dict(n_sites=3, sessions_per_site=8, keys_per_site=4,
               site_ops_per_sec=200.0, duration_ms=40000.0,
               hotspot_fraction=0.3, diurnal_amplitude=0.0, seed=3),
        **overrides,
    })
    engine = fleet_full._FleetFullEngine(spec)
    engine.stations = [_StubStation() for _ in range(spec.n_sites)]
    arrivals = [[] for _ in range(spec.n_sites)]
    inner = engine._arrive

    def arrive(site, rel, rng):
        arrivals[site].append(rel)
        inner(site, rel, rng)

    engine.arrivals._arrive = arrive
    return spec, engine, arrivals


def test_hotspot_share_within_binomial_bounds():
    spec, engine, arrivals = _stub_engine()
    engine.env.call_soon(engine._scan_cb, 0)
    engine.env.run()
    kps = spec.keys_per_site
    hot_hits = trials = 0
    for site, station in enumerate(engine.stations):
        for rel, (_sess, key_index, _w) in zip(arrivals[site],
                                                station.issued):
            hot = int(rel / spec.diurnal_period_ms % 1.0 * spec.n_sites)
            if hot == site:
                continue  # home and hotspot keys coincide
            key_site = key_index // kps
            # A key is the home site's or the hotspot's at this instant.
            assert key_site in (site, hot)
            trials += 1
            hot_hits += key_site == hot
    h = spec.hotspot_fraction
    assert trials > 10000
    assert abs(hot_hits / trials - h) < 4 * math.sqrt(h * (1 - h) / trials)


def test_write_and_session_choices_are_uniform():
    spec, engine, _ = _stub_engine(write_fraction=0.25)
    engine.env.call_soon(engine._scan_cb, 0)
    engine.env.run()
    issued = [op for station in engine.stations for op in station.issued]
    n = len(issued)
    writes = sum(1 for op in issued if op[2])
    assert abs(writes / n - 0.25) < 4 * math.sqrt(0.25 * 0.75 / n)
    sessions = {op[0] for op in issued}
    assert sessions == set(range(spec.sessions_per_site))


# -- the seams a phase-by-phase driver (perfbench/scenarios.py) uses ----------


def _drive(spec, rng_seed=None):
    """Run a cell phase by phase the way ``perfbench`` does, optionally
    swapping in other arrival streams after construction."""
    engine = fleet_full._FleetFullEngine(spec)
    if rng_seed is not None:
        engine.rngs = [
            seeded_rng(rng_seed, f"fleet-full-site-{i:04d}")
            for i in range(spec.n_sites)
        ]
    env = engine.env
    engine.deployment.start()
    engine.deployment.stabilize()
    env.run(until=env.process(engine._bootstrap()))
    t_connect = 50.0 * math.ceil(env.now / 50.0)
    for i, name in enumerate(engine.names):
        station = FleetStation(
            env, engine.net, spec, i, name,
            engine.deployment.server_at(name).client_addr,
            engine.read_ops, engine.write_ops, engine.key_paths,
        )
        station.recorder = LatencyRecorder(name, mode="exact")
        engine.stations.append(station)
        station.connect_from(t_connect)
    env.run(until=t_connect + spec.connect_window_ms + spec.settle_ms)
    engine._t0 = env.now
    env.call_soon(engine._scan_cb, 0)
    window = engine._ticks * spec.tick_ms
    env.run(until=engine._t0 + window + spec.drain_ms)
    samples = [
        (s.kind, s.start) for st in engine.stations for s in st.recorder.samples
    ]
    issued = sum(st.ops_issued for st in engine.stations)
    unanswered = sum(len(st.inflight) for st in engine.stations)
    return engine, window, samples, issued, unanswered


def test_engine_builds_its_topology_through_the_module_name(monkeypatch):
    original = fleet_full.build_fleet_topology
    calls = []

    def build(sites, seed=42, **kw):
        calls.append(kw)
        return original(sites, seed=seed, jitter_fraction=0.05, **kw)

    monkeypatch.setattr(fleet_full, "build_fleet_topology", build)
    fleet_full._FleetFullEngine(FleetFullSpec(n_sites=3, sessions_per_site=2))
    assert calls == [{}]


def test_phase_by_phase_seams():
    spec = FleetFullSpec(n_sites=3, sessions_per_site=8, keys_per_site=2,
                         duration_ms=1995.0, tick_ms=10.0,
                         site_ops_per_sec=20.0, seed=42)
    engine, window, samples, issued, unanswered = _drive(spec)
    # tick_ms only rounds the window.
    assert window == 2000.0
    assert issued == len(samples) + unanswered > 0
    # Every site's arrivals run from _t0 to the end of the window.
    assert all(st.ops_issued > 0 for st in engine.stations)
    starts = [start for _kind, start in samples]
    assert engine._t0 <= min(starts) and max(starts) < engine._t0 + window
    # The same spec with the streams swapped after construction gives a
    # different op stream; the same swap again gives the same one.
    _, _, swapped, _, _ = _drive(spec, rng_seed=9)
    _, _, again, _, _ = _drive(spec, rng_seed=9)
    assert swapped != samples
    assert swapped == again
