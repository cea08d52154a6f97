// Ingest front-end characterization (ROADMAP: network ingest edge).
// Records
//
//   ingest.parse_ns_per_tuple      zero-copy wire → arena-page decode
//                                  (DecodeTupleBatchInto), per tuple;
//   ingest.parse_ns_per_tuple_ref  the materialize-then-copy reference
//                                  (DecodeTupleBatchOwned into heap
//                                  tuples, then re-homed into a page);
//   ingest.parse_speedup           ref / zero-copy — the acceptance row
//                                  (must stay >= 1.3);
//   ingest.frames_per_sec          one in-memory producer's tagged
//                                  frames (ConduitClient) → conduit →
//                                  IngestSource → sink on the pooled
//                                  executor;
//   ingest.frames_per_sec_4p       the same end-to-end path through the
//                                  TCP serving edge with 4 concurrent
//                                  producer connections fanned into one
//                                  conduit (loopback sockets included);
//   ingest.feedback_roundtrip_ns   engine-edge feedback loop: intent
//                                  exploited + relayed by the source,
//                                  decoded back on the client side.
//
// Throughput rows depend on how many CPUs the host exposes, so
// ingest.online_cpus is recorded next to the batch for cross-box
// comparability.

#include <benchmark/benchmark.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/logging.h"
#include "exec/scheduler.h"
#include "ingest/ingest_client.h"
#include "ingest/ingest_source.h"
#include "ingest/tcp_acceptor.h"
#include "ops/sink.h"
#include "punct/pattern_parser.h"
#include "stream/columnar.h"
#include "types/tuple_arena.h"

namespace nstream {
namespace {

// The same mixed shape the ingest tests use: two fixed-width columns
// around a string column whose lengths straddle the inline/arena
// boundary — the case where a materializing decode pays for heap
// strings the zero-copy path never creates.
SchemaPtr IngestSchema() {
  return Schema::Make({{"a", ValueType::kInt64},
                       {"s", ValueType::kString},
                       {"b", ValueType::kInt64}});
}

std::vector<Tuple> MakeTuples(int n) {
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz";
  for (int i = 0; i < n; ++i) {
    out.push_back(TupleBuilder()
                      .I64(i)
                      .S(alphabet.substr(0, 1 + (i % 24)))
                      .I64(i * 10)
                      .Build());
  }
  return out;
}

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// ---- parse path A/B ------------------------------------------------

struct ParseCost {
  double zero_copy_ns_per_tuple = 0;
  double ref_ns_per_tuple = 0;
};

ParseCost MeasureParse(int batch_tuples, int reps) {
  std::vector<Tuple> tuples = MakeTuples(batch_tuples);
  std::string frame;
  AppendTupleBatchFrame(&frame, tuples);
  FrameView f;
  size_t consumed = 0;
  NSTREAM_CHECK(ScanFrame(frame, &f, &consumed).ok());

  ScopedTupleArenasEnabled arenas(true);
  ScopedPageColumnarEnabled columnar(true);
  const double denom =
      static_cast<double>(batch_tuples) * static_cast<double>(reps);

  // Zero-copy: wire payload straight into the page arena.
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    Page page;
    int64_t next_id = 1;
    NSTREAM_CHECK(DecodeTupleBatchInto(f.payload, 3, &page,
                                       /*allow_columnar=*/true, &next_id)
                      .ok());
    benchmark::DoNotOptimize(page.size());
  }
  ParseCost out;
  out.zero_copy_ns_per_tuple = ElapsedNs(t0) / denom;

  // Reference: materialize owned tuples, then copy them into a page —
  // what a front-end without the arena-aware decode has to do.
  auto t1 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    std::vector<Tuple> owned;
    NSTREAM_CHECK(DecodeTupleBatchOwned(f.payload, 3, &owned).ok());
    Page page;
    int64_t next_id = 1;
    for (Tuple& t : owned) {
      if (t.id() == 0) t.set_id(next_id++);
      page.AddTuple(std::move(t));
    }
    benchmark::DoNotOptimize(page.size());
  }
  out.ref_ns_per_tuple = ElapsedNs(t1) / denom;
  return out;
}

// ---- end-to-end frame throughput (pooled) --------------------------

double MeasureFramesPerSec(int n_tuples, size_t batch_size) {
  std::vector<Tuple> tuples = MakeTuples(n_tuples);

  // The whole stream is queued before the clock starts (the budget
  // holds it), so the row times the source, not the producer.
  FrameConduitOptions copts;
  copts.mux_budget_bytes = size_t{64} << 20;
  FrameConduit conduit(copts);
  ConduitClient client(&conduit, /*producer_id=*/1);
  NSTREAM_CHECK(client.Hello(3).ok());
  for (size_t i = 0; i < tuples.size(); i += batch_size) {
    std::string frame;
    AppendTupleBatchFrame(&frame, tuples.data() + i,
                          std::min(batch_size, tuples.size() - i));
    NSTREAM_CHECK(client.SendRaw(frame).ok());
  }
  NSTREAM_CHECK(client.SendEos().ok());
  client.CloseWrite();

  auto plan = std::make_unique<QueryPlan>();
  auto* src = plan->AddOp(
      std::make_unique<IngestSource>("ingest", IngestSchema(), &conduit));
  auto* sink = plan->AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false}));
  NSTREAM_CHECK(plan->Connect(*src, *sink).ok());
  NSTREAM_CHECK(plan->Finalize().ok());

  PooledExecutor exec(PooledExecutorOptions{});
  auto start = std::chrono::steady_clock::now();
  NSTREAM_CHECK(exec.Run(plan.get()).ok());
  const double ns = ElapsedNs(start);
  return static_cast<double>(src->admitted_frames()) / (ns * 1e-9);
}

// ---- multi-producer throughput through the TCP serving edge --------

bool SendAllFd(int fd, std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Graceful producer exit: half-close, then drain engine → producer
/// frames (the hello ack) until the acceptor closes the connection.
/// An abrupt close() would RST and discard unread frames acceptor-side.
void DrainAndClose(int fd) {
  ::shutdown(fd, SHUT_WR);
  char tmp[4096];
  for (;;) {
    ssize_t n = ::read(fd, tmp, sizeof(tmp));
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
}

double MeasureAcceptorFramesPerSec(int producers, int n_tuples,
                                   size_t batch_size,
                                   std::string* stats_out = nullptr) {
  std::vector<std::string> wire(static_cast<size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    const uint64_t id = static_cast<uint64_t>(p) + 1;
    std::string& w = wire[static_cast<size_t>(p)];
    AppendHelloFrame(&w, 3, id, 0);
    std::vector<Tuple> tuples = MakeTuples(n_tuples);
    for (size_t i = 0; i < tuples.size(); i += batch_size) {
      AppendTupleBatchFrame(&w, tuples.data() + i,
                            std::min(batch_size, tuples.size() - i));
    }
    AppendEosFrame(&w);
  }

  // The default conduit budget, so the row measures the edge as it
  // ships: the acceptor refilling on the conduit's drain wake.
  FrameConduit conduit;
  TcpAcceptor acceptor(&conduit);
  NSTREAM_CHECK(acceptor.Listen().ok());

  auto plan = std::make_unique<QueryPlan>();
  IngestSourceOptions sopts;
  sopts.expected_eos_producers = producers;
  auto* src = plan->AddOp(std::make_unique<IngestSource>(
      "ingest", IngestSchema(), &conduit, sopts));
  auto* sink = plan->AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false}));
  NSTREAM_CHECK(plan->Connect(*src, *sink).ok());
  NSTREAM_CHECK(plan->Finalize().ok());

  PooledExecutor exec(PooledExecutorOptions{});
  Result<QueryId> id = exec.Submit(plan.get());
  NSTREAM_CHECK(id.ok());

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(wire.size());
  for (const std::string& w : wire) {
    threads.emplace_back([&acceptor, &w] {
      Result<int> fd = TcpConnectLoopback(acceptor.port());
      NSTREAM_CHECK(fd.ok());
      NSTREAM_CHECK(SendAllFd(fd.value(), w));
      DrainAndClose(fd.value());
    });
  }
  NSTREAM_CHECK(exec.Wait(id.value()).ok());
  const double ns = ElapsedNs(start);
  acceptor.Stop();  // closes the conns, releasing the drain loops
  for (std::thread& t : threads) t.join();
  NSTREAM_CHECK(src->quarantined_producers() == 0);
  if (stats_out != nullptr) *stats_out = acceptor.StatsReport().ToString();
  return static_cast<double>(src->admitted_frames()) / (ns * 1e-9);
}

// ---- feedback round-trip at the edge -------------------------------

double MeasureFeedbackRoundTripNs(int reps) {
  FrameConduit conduit;
  IngestSource src("ingest", IngestSchema(), &conduit);
  ConduitClient client(&conduit, /*producer_id=*/1);
  FeedbackPunctuation fb = FeedbackPunctuation::Assumed(
      ParsePattern("[*,*,>=990]").value());
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    NSTREAM_CHECK(src.ProcessFeedback(0, fb).ok());
    Result<std::optional<FeedbackPunctuation>> got = client.PollFeedback();
    NSTREAM_CHECK(got.ok() && got.value().has_value());
    benchmark::DoNotOptimize(got.value()->is_assumed());
  }
  return ElapsedNs(start) / static_cast<double>(reps);
}

// ---- google-benchmark registrations (bench-smoke coverage) ---------

void BM_Ingest_ParseZeroCopy(benchmark::State& state) {
  for (auto _ : state) {
    ParseCost c = MeasureParse(static_cast<int>(state.range(0)), 4);
    benchmark::DoNotOptimize(c.zero_copy_ns_per_tuple);
  }
}
BENCHMARK(BM_Ingest_ParseZeroCopy)->Arg(1 << 10);

void BM_Ingest_FramesPooled(benchmark::State& state) {
  for (auto _ : state) {
    double fps = MeasureFramesPerSec(1 << 12, 32);
    benchmark::DoNotOptimize(fps);
  }
}
BENCHMARK(BM_Ingest_FramesPooled);

void BM_Ingest_FramesAcceptor4P(benchmark::State& state) {
  for (auto _ : state) {
    double fps = MeasureAcceptorFramesPerSec(4, 1 << 11, 32);
    benchmark::DoNotOptimize(fps);
  }
}
BENCHMARK(BM_Ingest_FramesAcceptor4P);

void BM_Ingest_FeedbackRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    double ns = MeasureFeedbackRoundTripNs(64);
    benchmark::DoNotOptimize(ns);
  }
}
BENCHMARK(BM_Ingest_FeedbackRoundTrip);

// ---- Recorded trajectory metrics -----------------------------------

void RecordHotpathJson() {
  // Parse A/B: warm once, then best (min) of 5 — same methodology as
  // the other hot-path rows.
  const int kBatch = 1 << 10;
  const int kReps = 64;
  MeasureParse(kBatch, kReps);  // warm-up
  ParseCost best;
  best.zero_copy_ns_per_tuple = best.ref_ns_per_tuple = 1e18;
  for (int i = 0; i < 5; ++i) {
    ParseCost c = MeasureParse(kBatch, kReps);
    best.zero_copy_ns_per_tuple =
        std::min(best.zero_copy_ns_per_tuple, c.zero_copy_ns_per_tuple);
    best.ref_ns_per_tuple =
        std::min(best.ref_ns_per_tuple, c.ref_ns_per_tuple);
  }

  const int kStreamTuples = 1 << 15;
  MeasureFramesPerSec(kStreamTuples, 32);  // warm-up
  double fps = 0;
  for (int i = 0; i < 3; ++i) {
    fps = std::max(fps, MeasureFramesPerSec(kStreamTuples, 32));
  }

  // 4 concurrent producers through the TCP acceptor into one conduit.
  const int kAcceptorProducers = 4;
  MeasureAcceptorFramesPerSec(kAcceptorProducers, 1 << 12, 32);  // warm-up
  double fps4 = 0;
  std::string acceptor_stats;
  for (int i = 0; i < 3; ++i) {
    std::string stats;
    const double run =
        MeasureAcceptorFramesPerSec(kAcceptorProducers, 1 << 13, 32, &stats);
    if (run > fps4) {
      fps4 = run;
      acceptor_stats = std::move(stats);
    }
  }
  std::fprintf(stdout, "acceptor (%d producers, best run):\n%s\n",
               kAcceptorProducers, acceptor_stats.c_str());

  MeasureFeedbackRoundTripNs(256);  // warm-up
  double rt = 1e18;
  for (int i = 0; i < 5; ++i) {
    rt = std::min(rt, MeasureFeedbackRoundTripNs(256));
  }

  benchjson::RecordAll({
      {"ingest.parse_ns_per_tuple", best.zero_copy_ns_per_tuple},
      {"ingest.parse_ns_per_tuple_ref", best.ref_ns_per_tuple},
      {"ingest.parse_speedup",
       best.ref_ns_per_tuple / best.zero_copy_ns_per_tuple},
      {"ingest.frames_per_sec", fps},
      {"ingest.frames_per_sec_4p", fps4},
      {"ingest.feedback_roundtrip_ns", rt},
      {"ingest.online_cpus",
       static_cast<double>(std::thread::hardware_concurrency())},
  });
}

}  // namespace
}  // namespace nstream

int main(int argc, char** argv) {
  nstream::RecordHotpathJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
