"""S5.2 — controller runtime overhead (plus serving-telemetry overhead).

``test_serving_telemetry_overhead`` times the same serving workload
through the query engine with telemetry off (null obs context — the
engine's bare pre-telemetry task path, by construction) and with full
telemetry on (registry + events + spans + per-query traces), and
records the on/off ratio in ``benchmarks/results/metrics.json``
(``bench.overhead.telemetry_*`` gauges) for the CI perf gate.
"""

import time

from conftest import run_once

from repro.experiments import overhead
from repro.experiments.report import banner, format_table


def test_controller_overhead(benchmark, config, emit):
    rows = run_once(benchmark, lambda: overhead.run_overhead(config))
    emit(
        "overhead",
        banner("Section 5.2: controller runtime overhead")
        + "\n"
        + format_table(rows),
    )
    for row in rows:
        # the Python controller must stay a small fraction of wall time
        # (the paper's C controller: 0.005-0.02% of runtime)
        assert row["controller wall (s)"] < 0.1 * row["wall time (s)"]
        assert row["sim overhead frac"] < 0.05


def test_noop_instrumentation_overhead(benchmark, config, emit):
    rows = run_once(
        benchmark, lambda: overhead.run_instrumentation_overhead(config)
    )
    emit(
        "instrumentation_overhead",
        banner("Observability: instrumentation overhead (fixed-delta near+far)")
        + "\n"
        + format_table(rows),
    )
    for row in rows:
        # the acceptance bar: with the registry disabled (the default),
        # the hooks' measured cost stays far below a 5% regression
        assert row["noop frac"] < 0.05


SERVE_SCALE = 0.02
SERVE_QUERIES = 24
SERVE_REPS = 3


def test_serving_telemetry_overhead(benchmark, emit):
    from repro import obs
    from repro.experiments.report import format_table
    from repro.service import QueryEngine, SSSPQuery, default_catalog

    def run_workload() -> float:
        """One full serving pass; caching off so every query computes."""
        engine = QueryEngine(
            default_catalog(SERVE_SCALE),
            max_workers=2,
            cache_size=0,
            max_batch=1,
        )
        with engine:
            queries = [
                SSSPQuery("cal", s, "nearfar") for s in range(SERVE_QUERIES)
            ]
            t0 = time.perf_counter()
            responses = engine.run_many(queries)
            elapsed = time.perf_counter() - t0
        assert all(r.ok for r in responses)
        return elapsed

    def measure(telemetry: bool) -> float:
        best = float("inf")
        for _ in range(SERVE_REPS):
            if telemetry:
                with obs.use(
                    registry=obs.MetricsRegistry(),
                    events=obs.ListSink(),
                    spans=obs.SpanRecorder(),
                ):
                    best = min(best, run_workload())
            else:
                # nested bare use() shadows the session registry with
                # the null context: the engine sees no telemetry at all
                with obs.use():
                    best = min(best, run_workload())
        return best

    off_s = measure(telemetry=False)
    on_s, _ = run_once(benchmark, lambda: (measure(telemetry=True), None))
    ratio = on_s / off_s

    rows = [
        {
            "queries": SERVE_QUERIES,
            "telemetry off (s)": round(off_s, 4),
            "telemetry on (s)": round(on_s, 4),
            "on/off ratio": round(ratio, 3),
        }
    ]
    emit(
        "serving_telemetry_overhead",
        banner("Serving path: telemetry on vs off")
        + "\n"
        + format_table(rows),
    )

    reg = obs.get_registry()
    reg.gauge("bench.overhead.telemetry_off_seconds").set(round(off_s, 4))
    reg.gauge("bench.overhead.telemetry_on_seconds").set(round(on_s, 4))
    reg.gauge("bench.overhead.telemetry_on_ratio").set(round(ratio, 3))
    reg.gauge("bench.overhead.telemetry_off_qps").set(
        round(SERVE_QUERIES / off_s, 2)
    )

    # the off path must be the bare pre-telemetry code path: traced
    # wrappers, envelopes and labelled histograms all gated off at
    # engine construction (the <2%-when-off budget holds structurally;
    # the measured ratio above tracks what *enabling* telemetry costs)
    with obs.use():
        engine = QueryEngine(default_catalog(0.005), max_workers=1)
        with engine:
            assert engine.telemetry is False
    # full telemetry (buffered contexts, payload shipping, span events)
    # must stay a modest multiplier on kernel-dominated serving
    assert ratio < 1.5, f"telemetry on/off ratio {ratio:.3f} >= 1.5"
