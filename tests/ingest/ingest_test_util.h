// Shared scaffolding for the ingest test suite: a randomized workload
// generator, a wire-stream encoder, and a tiny ingest → sink plan
// runner usable under every executor.

#ifndef NSTREAM_TESTS_INGEST_INGEST_TEST_UTIL_H_
#define NSTREAM_TESTS_INGEST_INGEST_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/query_plan.h"
#include "exec/scheduler.h"
#include "exec/sync_executor.h"
#include "ingest/ingest_client.h"
#include "ingest/ingest_source.h"
#include "ops/sink.h"
#include "testing/test_util.h"

namespace nstream {
namespace testing_util {

/// The ingest test schema: <a: i64, s: string, b: i64>. The string in
/// the middle exercises inline (≤15 B), arena-spilled, and owned
/// storage on the zero-copy path.
inline SchemaPtr IngestSchema() {
  return Schema::Make({{"a", ValueType::kInt64},
                       {"s", ValueType::kString},
                       {"b", ValueType::kInt64}});
}

/// Random tuples over IngestSchema: string lengths 0..24 straddle the
/// 15-byte inline boundary; ids are left 0 so both VectorSource and
/// IngestSource assign 1..n in arrival order.
inline std::vector<Tuple> RandomIngestTuples(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string s(rng.NextBounded(25), ' ');
    for (char& c : s) {
      c = static_cast<char>('a' + rng.NextBounded(26));
    }
    out.push_back(TupleBuilder()
                      .I64(static_cast<int64_t>(rng.NextBounded(100)))
                      .S(std::move(s))
                      .I64(static_cast<int64_t>(rng.NextBounded(1000)))
                      .Build());
  }
  return out;
}

/// The producer id single-producer tests speak under.
inline constexpr uint64_t kTestProducer = 1;

/// Encode `tuples` as one producer's full wire stream: hello (producer
/// kTestProducer, resume 0), batches of `batch_size`, a grouped
/// punctuation every `punct_every` tuples (0 = none), then EOS.
inline std::string EncodeIngestStream(const std::vector<Tuple>& tuples,
                                      size_t batch_size,
                                      size_t punct_every = 0) {
  std::string bytes;
  AppendHelloFrame(&bytes, 3, kTestProducer, 0);
  size_t sent = 0;
  while (sent < tuples.size()) {
    const size_t n = std::min(batch_size, tuples.size() - sent);
    AppendTupleBatchFrame(&bytes, tuples.data() + sent, n);
    sent += n;
    if (punct_every != 0 && sent % punct_every == 0) {
      AppendPunctuationFrame(
          &bytes, Punctuation(P("[<=" + std::to_string(sent) + ",*,*]")));
    }
  }
  AppendEosFrame(&bytes);
  return bytes;
}

/// IngestSource → CollectorSink over a caller-owned conduit.
struct IngestPlan {
  std::unique_ptr<QueryPlan> plan;
  IngestSource* source = nullptr;
  CollectorSink* sink = nullptr;
};

inline IngestPlan MakeIngestPlan(FrameConduit* conduit,
                                 IngestSourceOptions opts = {},
                                 CollectorSink::FeedbackDriver driver =
                                     nullptr) {
  IngestPlan out;
  out.plan = std::make_unique<QueryPlan>();
  out.source = out.plan->AddOp(std::make_unique<IngestSource>(
      "ingest", IngestSchema(), conduit, std::move(opts)));
  out.sink = out.plan->AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{}, std::move(driver)));
  EXPECT_TRUE(out.plan->Connect(*out.source, *out.sink).ok());
  return out;
}

/// Cut a well-formed byte stream into its whole frames.
inline std::vector<std::string> SplitFrames(std::string_view bytes) {
  std::vector<std::string> out;
  while (!bytes.empty()) {
    FrameView f;
    size_t consumed = 0;
    Status s = ScanFrame(bytes, &f, &consumed);
    EXPECT_TRUE(s.ok() && consumed > 0) << "not a whole-frame stream";
    if (!s.ok() || consumed == 0) break;
    out.emplace_back(bytes.substr(0, consumed));
    bytes.remove_prefix(consumed);
  }
  return out;
}

/// Pre-fill a conduit with `bytes`' frames, tagged kTestProducer (whole
/// stream queued, write side closed) — the deterministic mode the
/// sync/sim runs rely on. Queued past the mux budget, like a trace
/// replay.
inline std::unique_ptr<FrameConduit> PrefilledConduit(
    std::string_view bytes) {
  auto conduit = std::make_unique<FrameConduit>();
  for (std::string& f : SplitFrames(bytes)) {
    conduit->ForceMuxFrame(kTestProducer, std::move(f));
  }
  conduit->CloseWrite();
  return conduit;
}

/// Tuples whose fields witness their origin: a = producer id, b =
/// per-producer sequence number. Lets multi-producer tests attribute
/// every collected row to its producer and assert per-producer order.
inline std::vector<Tuple> SequencedTuples(uint64_t producer, int n,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string s(rng.NextBounded(25), ' ');
    for (char& c : s) {
      c = static_cast<char>('a' + rng.NextBounded(26));
    }
    out.push_back(TupleBuilder()
                      .I64(static_cast<int64_t>(producer))
                      .S(std::move(s))
                      .I64(i)
                      .Build());
  }
  return out;
}

/// One producer's session against the multi-producer serving edge:
/// the hello (resume 0) plus the resumable frame list — batches then
/// EOS, indexed exactly as the wire protocol's per-producer frame
/// offsets, so tests can cut, resend, and resume at any index.
struct ProducerStream {
  uint64_t producer = 0;
  std::vector<Tuple> tuples;
  std::string hello;                // resume offset 0
  std::vector<std::string> frames;  // batches then EOS
};

inline ProducerStream MakeProducerStream(uint64_t producer, int n,
                                         uint64_t seed,
                                         size_t batch_size) {
  ProducerStream out;
  out.producer = producer;
  out.tuples = SequencedTuples(producer, n, seed);
  AppendHelloFrame(&out.hello, 3, producer, 0);
  size_t sent = 0;
  while (sent < out.tuples.size()) {
    const size_t k = std::min(batch_size, out.tuples.size() - sent);
    std::string f;
    AppendTupleBatchFrame(&f, out.tuples.data() + sent, k);
    out.frames.push_back(std::move(f));
    sent += k;
  }
  std::string eos;
  AppendEosFrame(&eos);
  out.frames.push_back(std::move(eos));
  return out;
}

/// Per-producer order check: rows attributed by field a (producer id)
/// must carry non-decreasing b (sequence). Cross-producer interleave
/// is free; within one producer the edge must preserve arrival order.
inline void ExpectPerProducerOrder(
    const std::vector<CollectedTuple>& rows) {
  std::map<int64_t, int64_t> last;
  for (const CollectedTuple& c : rows) {
    const int64_t producer = c.tuple.value(0).int64_value();
    const int64_t seq = c.tuple.value(2).int64_value();
    auto it = last.find(producer);
    if (it != last.end()) {
      EXPECT_GE(seq, it->second)
          << "producer " << producer << " rows reordered";
    }
    last[producer] = seq;
  }
}

inline std::multiset<std::string> TupleStrings(
    const std::vector<CollectedTuple>& rows) {
  std::multiset<std::string> out;
  for (const CollectedTuple& c : rows) out.insert(c.tuple.ToString());
  return out;
}

inline std::multiset<std::string> TupleStrings(
    const std::vector<Tuple>& tuples) {
  std::multiset<std::string> out;
  for (const Tuple& t : tuples) out.insert(t.ToString());
  return out;
}

}  // namespace testing_util
}  // namespace nstream

#endif  // NSTREAM_TESTS_INGEST_INGEST_TEST_UTIL_H_
