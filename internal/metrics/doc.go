// Package metrics is a dependency-free instrument registry for the
// feasregion runtime: atomic counters, gauges, fixed-log-bucket
// histograms, and exponentially-weighted moving averages, plus
// read-on-scrape series (CounterFunc, GaugeFunc, HistogramFunc) over
// state a component already keeps, with snapshot export in Prometheus
// text format and via expvar.
//
// Three properties shape the design:
//
//   - Zero-allocation hot path. Instruments are pre-registered once and
//     updated with single atomic operations; Observe/Inc/Set never
//     allocate, so they are safe inside the admission test and the
//     per-dispatch scheduler path.
//   - Scrape pays, not the hot path. A series mirroring a component's
//     own counters or state is a func read at scrape time rather than
//     an instrument written per event. PlainHistogram is Histogram for
//     a single writer (plain counts and sum, the same bucket and
//     quantile arithmetic), exported with HistogramFunc. Func series
//     read their owner's state without synchronization of their own:
//     over a simulated stack, which one goroutine drives, render the
//     registry on that goroutine or while the simulation is stopped,
//     never concurrently with it. Series over concurrent components
//     (the online controller) take the component's own lock and may be
//     scraped at any time.
//   - Free when disabled. A nil *Registry hands out nil instruments, and
//     every instrument method is nil-receiver-safe, so instrumented code
//     needs no conditionals and pays one predictable nil check when
//     metrics are off. The disabled-overhead budget is enforced by
//     BenchmarkCoreAdmitMetrics{Off,On}.
//
// Series are identified by a family name plus optional labels; repeated
// registration of the same (name, labels) returns the existing
// instrument, so independent components may idempotently describe the
// same series. Asking for a series as a different instrument than the
// one that owns it panics with a message naming both. Histogram
// quantiles double as the telemetry source of the adaptive estimators
// (internal/adapt).
package metrics
