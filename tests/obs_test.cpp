// Tests for the observability layer: JSON emitter, metrics registry
// (counters, gauges, log-linear + fixed histograms, cross-rank merge), the
// Chrome trace_event exporter (spans, flow arrows, counter graphs), the
// time-series sampler, and the critical-path analyzer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/timeout.hpp"
#include "sim/trace.hpp"

namespace pgxd {
namespace {

// ---------------------------------------------------------------- JsonWriter

TEST(JsonWriter, NestedDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("name", "pgxd");
  w.kv("n", std::uint64_t{42});
  w.kv("ratio", 0.5);
  w.kv("ok", true);
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.kv("x", std::int64_t{-3});
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"pgxd\",\"n\":42,\"ratio\":0.5,\"ok\":true,"
            "\"list\":[1,2],\"nested\":{\"x\":-3}}");
}

TEST(JsonWriter, EscapesStrings) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("s", "a\"b\\c\nd");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,1.5]");
}

TEST(JsonWriterDeath, RejectsMalformedNesting) {
  EXPECT_DEATH(
      {
        obs::JsonWriter w;
        w.begin_object();
        w.value(1.0);  // object value without a key
      },
      "without a key");
}

// ------------------------------------------------------------ Counter/Gauge

TEST(Metrics, CounterAccumulatesAndMergesByAddition) {
  obs::Counter a, b;
  a.inc();
  a.inc(4);
  b.inc(10);
  a.merge(b);
  EXPECT_EQ(a.value(), 15u);
}

TEST(Metrics, GaugeMergesByMax) {
  obs::Gauge a, b;
  a.set(3.0);
  b.set(7.0);
  a.merge(b);
  EXPECT_EQ(a.value(), 7.0);
  b.merge(a);
  EXPECT_EQ(b.value(), 7.0);
}

// -------------------------------------------------------------- LogHistogram

TEST(LogHistogram, SmallValuesAreExact) {
  obs::LogHistogram h;
  for (std::uint64_t v = 0; v < obs::LogHistogram::kSubBuckets; ++v)
    EXPECT_EQ(obs::LogHistogram::bucket_floor(v), v);
}

TEST(LogHistogram, BucketFloorWithinRelativeErrorBound) {
  // Log-linear with 32 sub-buckets per octave: floor(v) <= v and the bucket
  // width is at most v / 16, so floor(v) > v * (1 - 1/16).
  for (std::uint64_t v : {100ull, 1000ull, 123456ull, 1ull << 40,
                          (1ull << 63) + 12345ull}) {
    const std::uint64_t f = obs::LogHistogram::bucket_floor(v);
    EXPECT_LE(f, v);
    EXPECT_GT(static_cast<double>(f), static_cast<double>(v) * (1.0 - 1.0 / 16));
  }
}

TEST(LogHistogram, MomentsAndQuantiles) {
  obs::LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  // Quantile lands within one sub-bucket (1/16 relative) of the true value.
  const double p50 = static_cast<double>(h.quantile(0.5));
  EXPECT_GT(p50, 500.0 * (1.0 - 1.0 / 16));
  EXPECT_LE(p50, 500.0 * (1.0 + 1.0 / 16));
  const double p99 = static_cast<double>(h.quantile(0.99));
  EXPECT_GT(p99, 990.0 * (1.0 - 1.0 / 16));
  EXPECT_LE(p99, 1000.0);
}

TEST(LogHistogram, MergeMatchesCombinedStream) {
  obs::LogHistogram all, a, b;
  for (std::uint64_t v = 0; v < 5000; ++v) {
    const std::uint64_t x = (v * 2654435761u) % 100000;
    all.add(x);
    (v % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_EQ(a.sum(), all.sum());
  for (double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_EQ(a.quantile(q), all.quantile(q));
}

TEST(LogHistogram, WeightedAdd) {
  obs::LogHistogram h;
  h.add(10, 100);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 1000u);
  EXPECT_EQ(h.quantile(0.5), 10u);
}

// ------------------------------------------------------------------ Registry

TEST(MetricsRegistry, InstrumentsCreatedOnFirstUseWithStableRefs) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("sort.exchange.chunks_sent");
  c.inc(3);
  // Creating more instruments must not invalidate the first reference.
  for (int i = 0; i < 100; ++i)
    reg.counter("filler." + std::to_string(i)).inc();
  c.inc(2);
  EXPECT_EQ(reg.counter_value("sort.exchange.chunks_sent"), 5u);
  EXPECT_EQ(reg.counter_value("never.created"), 0u);
}

TEST(MetricsRegistry, MergeFoldsAllInstrumentKinds) {
  obs::MetricsRegistry a, b;
  a.counter("c").inc(1);
  b.counter("c").inc(2);
  b.counter("only_b").inc(7);
  a.gauge("g").set(5.0);
  b.gauge("g").set(3.0);
  a.histogram("h").add(10);
  b.histogram("h").add(1000);
  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 3u);
  EXPECT_EQ(a.counter_value("only_b"), 7u);
  EXPECT_EQ(a.gauge_value("g"), 5.0);
  EXPECT_EQ(a.histograms().at("h").count(), 2u);
  EXPECT_EQ(a.histograms().at("h").max(), 1000u);
}

TEST(MetricsRegistry, SameNameAliasesToOneInstrument) {
  // Two registrations under one name must hand back the same instrument —
  // split instruments would silently fork the count between call sites.
  obs::MetricsRegistry reg;
  EXPECT_EQ(&reg.counter("sort.load.items"), &reg.counter("sort.load.items"));
  EXPECT_EQ(&reg.gauge("pool.peak"), &reg.gauge("pool.peak"));
  EXPECT_EQ(&reg.histogram("chunk.bytes"), &reg.histogram("chunk.bytes"));
  reg.counter("sort.load.items").inc(2);
  reg.counter("sort.load.items").inc(3);
  EXPECT_EQ(reg.counter_value("sort.load.items"), 5u);
}

TEST(MetricsRegistry, MergeAllPreservesEveryInstrumentKind) {
  std::vector<obs::MetricsRegistry> ranks(3);
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    ranks[r].counter("c").inc(10 * (r + 1));
    ranks[r].gauge("g").set(static_cast<double>(r));
    ranks[r].histogram("h").add(100 * (r + 1));
  }
  const obs::MetricsRegistry merged = obs::merge_all(ranks);
  EXPECT_EQ(merged.counter_value("c"), 60u);   // sum
  EXPECT_EQ(merged.gauge_value("g"), 2.0);     // max
  EXPECT_EQ(merged.histograms().at("h").count(), 3u);
  EXPECT_EQ(merged.histograms().at("h").sum(), 600u);
}

TEST(MetricsRegistry, MergeAllAcrossRanks) {
  std::vector<obs::MetricsRegistry> ranks(4);
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    ranks[r].counter("sort.load.items").inc(100 * (r + 1));
    ranks[r].gauge("sort.memory.peak_temp_bytes")
        .set(1000.0 * static_cast<double>(r + 1));
  }
  const obs::MetricsRegistry merged = obs::merge_all(ranks);
  EXPECT_EQ(merged.counter_value("sort.load.items"), 1000u);
  EXPECT_EQ(merged.gauge_value("sort.memory.peak_temp_bytes"), 4000.0);
}

TEST(MetricsRegistry, WriteJsonEmitsEverySection) {
  obs::MetricsRegistry reg;
  reg.counter("a.b.c").inc(9);
  reg.gauge("d.e.f").set(2.5);
  reg.histogram("g.h.i").add(100);
  obs::JsonWriter w;
  reg.write_json(w);
  const std::string& s = w.str();
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"a.b.c\":9"), std::string::npos);
  EXPECT_NE(s.find("\"gauges\""), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.find("\"p99\""), std::string::npos);
}

// -------------------------------------------------------------- Chrome trace

TEST(ChromeTrace, EmitsMetadataAndCompleteEvents) {
  sim::Trace t;
  t.set_lane_count(3);  // lane 2 has no spans but still gets a thread name
  t.record(0, "local-sort", 0, 2000, /*bytes=*/64);
  t.record(1, "send/receive", 1000, 5000);
  const std::string json = obs::chrome_trace_json(t, "test-proc");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("test-proc"), std::string::npos);
  EXPECT_NE(json.find("rank 2"), std::string::npos);  // declared empty lane
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"local-sort\""), std::string::npos);
  // ts/dur are microseconds: the 2000ns span becomes dur 2.
  EXPECT_NE(json.find("\"dur\":2"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":64"), std::string::npos);
}

TEST(ChromeTrace, EmptyTraceIsStillValidDocument) {
  sim::Trace t;
  const std::string json = obs::chrome_trace_json(t);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(ChromeTrace, SpanLabelsAreJsonEscaped) {
  sim::Trace t;
  t.record(0, "odd \"label\"\nwith\\escapes", 0, 1000);
  const std::string json = obs::chrome_trace_json(t);
  EXPECT_NE(json.find("odd \\\"label\\\"\\nwith\\\\escapes"),
            std::string::npos);
  // The raw unescaped forms must not leak into the document.
  EXPECT_EQ(json.find("\nwith"), std::string::npos);
}

TEST(ChromeTrace, ManyLabelsKeepFullNames) {
  // render_gantt folds labels past 62 into the '*' glyph; the Chrome
  // export has no glyph alphabet and must keep every name verbatim.
  sim::Trace t;
  for (int i = 0; i < 70; ++i)
    t.record(0, "label" + std::to_string(i), i * 10, i * 10 + 10);
  const std::string json = obs::chrome_trace_json(t);
  for (int i : {0, 26, 52, 69})
    EXPECT_NE(json.find("\"label" + std::to_string(i) + "\""),
              std::string::npos)
        << i;
  EXPECT_EQ(json.find("\"*\""), std::string::npos);
}

TEST(ChromeTrace, FlowEdgesBecomeMatchedArrowPairs) {
  sim::Trace t;
  t.set_lane_count(2);
  t.record(0, "send/receive", 0, 500);
  t.record(1, "send/receive", 0, 500);
  t.name_tag(3, "chunk");
  t.record_flow(sim::Trace::Flow(7, 0, 1, 100, 130, 4096, 3,
                                 sim::Trace::FlowKind::kData,
                                 /*retransmit=*/true, /*duplicate=*/false));
  t.record_flow(sim::Trace::Flow(7, 1, 0, 140, 150, 16, -1,
                                 sim::Trace::FlowKind::kAck,
                                 /*retransmit=*/false, /*duplicate=*/false));
  const std::string json = obs::chrome_trace_json(t);
  // One "s"/"f" pair per edge, arrow head bound to the enclosing slice.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow.data\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow.ack\""), std::string::npos);
  // The data arrow carries the tag label and the causal metadata.
  EXPECT_NE(json.find("\"name\":\"chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ack\""), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"retransmit\":true"), std::string::npos);
}

TEST(ChromeTrace, TimeSeriesDumpBecomesCounterEvents) {
  sim::Trace t;
  t.record(0, "work", 0, 1000);
  obs::TimeSeriesDump dump;
  dump.interval = 100;
  obs::TimeSeriesDump::Series s;
  s.name = "rank0.mailbox_depth";
  s.capacity = 8;
  s.points.push_back(obs::TimeSeriesPoint(0, 0.0));
  s.points.push_back(obs::TimeSeriesPoint(100, 3.0));
  dump.series.push_back(std::move(s));
  const std::string json = obs::chrome_trace_json(t, "pgxd", &dump);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank0.mailbox_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  // Without a dump, no counter events appear.
  EXPECT_EQ(obs::chrome_trace_json(t).find("\"ph\":\"C\""),
            std::string::npos);
}

// ---------------------------------------------------------------- TimeSeries

TEST(TimeSeries, RingDropsOldestPastCapacity) {
  obs::TimeSeries ts(3);
  for (sim::SimTime t = 0; t < 5; ++t)
    ts.push(t * 100, static_cast<double>(t));
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.capacity(), 3u);
  EXPECT_EQ(ts.dropped(), 2u);
  // Oldest-first iteration over the surviving window.
  EXPECT_EQ(ts.at(0).t, 200);
  EXPECT_EQ(ts.at(2).t, 400);
  EXPECT_EQ(ts.at(2).v, 4.0);
}

TEST(TimeSeriesSampler, SampleOnceSnapshotsEveryProbe) {
  obs::TimeSeriesSampler sampler(/*interval=*/100, /*capacity=*/4);
  double depth = 1.0;
  sampler.add("depth", [&depth] { return depth; });
  sampler.add("constant", [] { return 42.0; });
  sampler.sample_once(0);
  depth = 5.0;
  sampler.sample_once(100);
  const obs::TimeSeriesDump dump = sampler.dump();
  ASSERT_EQ(dump.series.size(), 2u);
  EXPECT_EQ(dump.interval, 100);
  ASSERT_EQ(dump.series[0].points.size(), 2u);
  EXPECT_EQ(dump.series[0].name, "depth");
  EXPECT_EQ(dump.series[0].points[0].v, 1.0);
  EXPECT_EQ(dump.series[0].points[1].v, 5.0);
  EXPECT_EQ(dump.series[1].points[1].v, 42.0);
}

sim::Task<void> stop_sampler_at(sim::Simulator& sim, sim::SimTime at,
                                obs::TimeSeriesSampler& sampler) {
  co_await sim.delay(at);
  sampler.request_stop();
}

TEST(TimeSeriesSampler, LoopSamplesOnIntervalAndStopsCleanly) {
  sim::Simulator sim;
  obs::TimeSeriesSampler sampler(/*interval=*/100, /*capacity=*/16);
  sampler.add("clock", [&sim] { return static_cast<double>(sim.now()); });
  sampler.start(sim);
  sim.spawn(stop_sampler_at(sim, 450, sampler));
  const sim::SimTime end = sim.run();
  // Samples at 0, 100, ..., 400; the cancelled tick must not push the
  // clock to 500.
  EXPECT_EQ(end, 450);
  EXPECT_FALSE(sampler.running());
  const obs::TimeSeriesDump dump = sampler.dump();
  ASSERT_EQ(dump.series.size(), 1u);
  ASSERT_EQ(dump.series[0].points.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(dump.series[0].points[i].t, static_cast<sim::SimTime>(i * 100));
    EXPECT_EQ(dump.series[0].points[i].v, static_cast<double>(i * 100));
  }
}

// -------------------------------------------------------------- CriticalPath

// Hand-built two-lane trace: lane 1's merge waits on a chunk from lane 0.
//
//   lane 0: [local-sort 0..100]   --chunk(send 70, recv 100)-->
//   lane 1: [local-sort 0..80][merge 80..220]
//
// Expected path (backward from merge end 220): merge compute (100..220],
// wire (70..100], then local-sort compute (0..70] on lane 0.
sim::Trace make_two_lane_trace() {
  sim::Trace t;
  t.record(0, "local-sort", 0, 100);
  t.record(1, "local-sort", 0, 80);
  t.record(1, "merge", 80, 220);
  t.name_tag(3, "chunk");
  t.record_flow(sim::Trace::Flow(9, 0, 1, 70, 100, 4096, 3,
                                 sim::Trace::FlowKind::kData,
                                 /*retransmit=*/false, /*duplicate=*/false));
  return t;
}

TEST(CriticalPath, WalksAcrossTheBlockingEdge) {
  const sim::Trace t = make_two_lane_trace();
  const obs::CriticalPathReport cp = obs::compute_critical_path(t);
  EXPECT_TRUE(cp.computed);
  EXPECT_EQ(cp.total_ns, 220);
  EXPECT_EQ(cp.compute_ns, 190);  // 120 merge + 70 local-sort
  EXPECT_EQ(cp.wire_ns, 30);
  EXPECT_EQ(cp.hops, 1u);
  EXPECT_EQ(cp.end_lane, 1u);
  EXPECT_EQ(cp.start_lane, 0u);
  ASSERT_EQ(cp.top_edges.size(), 1u);
  EXPECT_EQ(cp.top_edges[0].span_id, 9u);
  EXPECT_EQ(cp.top_edges[0].label, "chunk");
  // Charged segments partition the end-to-end window exactly.
  EXPECT_EQ(cp.compute_ns + cp.wire_ns, cp.total_ns);
  double share_sum = 0.0;
  for (const auto& p : cp.phases) share_sum += p.share;
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(CriticalPath, DuplicateEdgesNeverCarryThePath) {
  sim::Trace t = make_two_lane_trace();
  // A dedup-suppressed copy landing later than the real one must not
  // hijack the walk (it did not enable any work).
  t.record_flow(sim::Trace::Flow(9, 0, 1, 205, 210, 4096, 3,
                                 sim::Trace::FlowKind::kData,
                                 /*retransmit=*/true, /*duplicate=*/true));
  const obs::CriticalPathReport cp = obs::compute_critical_path(t);
  EXPECT_EQ(cp.hops, 1u);
  ASSERT_EQ(cp.top_edges.size(), 1u);
  EXPECT_EQ(cp.top_edges[0].recv, 100);
}

TEST(CriticalPath, RunEndExtendsThePathAcrossTheDrainTail) {
  sim::Trace t = make_two_lane_trace();
  // An ack landing on lane 0 after every span ended — the protocol drain.
  t.record_flow(sim::Trace::Flow(9, 1, 0, 230, 260, 16, -1,
                                 sim::Trace::FlowKind::kAck,
                                 /*retransmit=*/false, /*duplicate=*/false));
  const obs::CriticalPathReport cp =
      obs::compute_critical_path(t, /*top_k=*/5, /*run_end=*/260);
  EXPECT_EQ(cp.total_ns, 260);
  EXPECT_EQ(cp.end_lane, 0u);  // the ack's receiver owns the tail
  EXPECT_EQ(cp.compute_ns + cp.wire_ns, cp.total_ns);
  // The final ack hop is on the path now.
  bool saw_ack = false;
  for (const auto& e : cp.top_edges) saw_ack |= e.label == "ack";
  EXPECT_TRUE(saw_ack);
}

TEST(CriticalPath, EmptyTraceReportsNotComputed) {
  sim::Trace t;
  const obs::CriticalPathReport cp = obs::compute_critical_path(t);
  EXPECT_FALSE(cp.computed);
  EXPECT_EQ(cp.total_ns, 0);
}

}  // namespace
}  // namespace pgxd
