#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <numeric>

#include "core/correctness.h"
#include "ingest/wire_format.h"

namespace nstream::e2e {

namespace {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Independent RNG stream per (seed, purpose, phase, side/connection,
// window): any one stream can be regenerated without the others.
uint64_t StreamSeed(uint64_t seed, uint64_t purpose, PhaseKind p,
                    uint64_t who, uint64_t w = 0) {
  uint64_t h = Mix64(seed ^ 0x5eedULL);
  h = Mix64(h ^ purpose);
  h = Mix64(h ^ static_cast<uint64_t>(p));
  h = Mix64(h ^ who);
  return Mix64(h ^ w);
}

constexpr uint64_t kFaninPurpose = 1;
constexpr uint64_t kJoinDataPurpose = 2;
constexpr uint64_t kJoinOrderPurpose = 3;
constexpr uint64_t kJoinGapPurpose = 4;

}  // namespace

const char* WorkloadName(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kIngestFanin:
      return "ingest_fanin";
    case WorkloadKind::kJoinAgg:
      return "join_agg";
    case WorkloadKind::kJoinAggFeedback:
      return "join_agg_feedback";
    case WorkloadKind::kJoinAggCkpt:
      return "join_agg_ckpt";
  }
  return "?";
}

std::optional<WorkloadKind> ParseWorkload(std::string_view name) {
  for (WorkloadKind w : kAllWorkloads) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* PhaseName(PhaseKind p) {
  switch (p) {
    case PhaseKind::kSaturation:
      return "saturation";
    case PhaseKind::kLatency:
      return "latency";
  }
  return "?";
}

Sizes Sizes::ForSeconds(double seconds) {
  Sizes s;
  s.latency_s = 0.4 * seconds;
  s.sat_s = 0.6 * seconds;
  return s;
}

Sizes Sizes::Smoke() {
  Sizes s;
  s.fanin_sat_tuples = 32'768;
  s.join_sat_windows = 5;
  s.latency_s = 1.0;
  s.warmup_reps = 0;
  s.sat_s = 0;
  s.min_sat_reps = 1;
  return s;
}

// ---- ingest_fanin -------------------------------------------------

SchemaPtr FaninSchema() {
  return Schema::Make({{"a", ValueType::kInt64},
                       {"s", ValueType::kString},
                       {"b", ValueType::kInt64},
                       {"due_ns", ValueType::kInt64}});
}

FaninStream::FaninStream(uint64_t seed, PhaseKind phase, int conn)
    : stream_seed_(StreamSeed(seed, kFaninPurpose, phase,
                              static_cast<uint64_t>(conn))),
      period_(phase == PhaseKind::kSaturation ? kFaninSatCycle : INT64_MAX),
      rng_(stream_seed_) {}

FaninTuple FaninStream::Next() {
  if (pos_ > 0 && pos_ % period_ == 0) rng_ = Rng(stream_seed_);
  ++pos_;
  FaninTuple t;
  t.a = static_cast<int64_t>(rng_.NextBounded(1'000'000'000'000ULL));
  t.len = static_cast<uint8_t>(1 + rng_.NextBounded(24));
  uint64_t bits = 0;
  for (int i = 0; i < t.len; ++i) {
    if (i % 12 == 0) bits = rng_.Next();
    t.s[i] = static_cast<char>('a' + (bits & 31) % 26);
    bits >>= 5;
  }
  t.b = static_cast<int64_t>(rng_.Next() >> 1);
  return t;
}

uint64_t FaninTupleHash(int64_t a, std::string_view s, int64_t b) {
  return Mix64(static_cast<uint64_t>(a)) ^
         Mix64(static_cast<uint64_t>(b) + 0x9e3779b97f4a7c15ULL) * 3 ^
         std::hash<std::string_view>{}(s);
}

int64_t FaninTuplesPerConn(const Sizes& s, PhaseKind p) {
  const double n = p == PhaseKind::kSaturation
                       ? static_cast<double>(s.fanin_sat_tuples)
                       : s.latency_s * kFaninRate;
  const int64_t frames = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(n / kFaninFrameTuples)));
  return frames * kFaninFrameTuples;
}

FaninDigest FaninReference(uint64_t seed, PhaseKind p, int64_t per_conn) {
  FaninDigest d;
  for (int c = 0; c < kFaninConns; ++c) {
    FaninStream st(seed, p, c);
    for (int64_t i = 0; i < per_conn; ++i) {
      const FaninTuple t = st.Next();
      if (FaninKeep(t.a)) d.Add(FaninTupleHash(t.a, t.str(), t.b));
    }
  }
  return d;
}

// ---- join workloads -----------------------------------------------

SchemaPtr JoinLeftSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"g", ValueType::kInt64},
                       {"lv", ValueType::kInt64}});
}

SchemaPtr JoinRightSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"rts", ValueType::kTimestamp},
                       {"rv", ValueType::kInt64}});
}

JoinWindowGen::JoinWindowGen(uint64_t seed, PhaseKind p, int side, int64_t w)
    : rng_(StreamSeed(seed, kJoinDataPurpose, p, static_cast<uint64_t>(side),
                      static_cast<uint64_t>(w))),
      side_(side),
      w_(w),
      keys_(static_cast<size_t>(kKeySpace)) {
  std::iota(keys_.begin(), keys_.end(), 0);
}

void JoinWindowGen::Next(int64_t n, std::vector<JoinTuple>* out) {
  // Distinct keys: the leading entries of a partial Fisher-Yates
  // shuffle of the key space.
  for (const int64_t end = std::min(j_ + n, kTuplesPerWindow); j_ < end; ++j_) {
    const int64_t pick = j_ + static_cast<int64_t>(rng_.NextBounded(
                                  static_cast<uint64_t>(kKeySpace - j_)));
    std::swap(keys_[static_cast<size_t>(j_)], keys_[static_cast<size_t>(pick)]);
    JoinTuple t;
    t.k = keys_[static_cast<size_t>(j_)];
    t.ts = w_ * kWindowMs + j_ / kTuplesPerMs;
    t.g = side_ == 0 ? t.k % kGroups : 0;
    t.v = static_cast<int64_t>(rng_.NextBounded(1000));
    t.arrival = t.ts + static_cast<int64_t>(rng_.NextBounded(kJitterMs + 1));
    out->push_back(t);
  }
}

std::vector<JoinTuple> JoinWindowTuples(uint64_t seed, PhaseKind p, int side,
                                        int64_t w) {
  std::vector<JoinTuple> out;
  out.reserve(static_cast<size_t>(kTuplesPerWindow));
  JoinWindowGen(seed, p, side, w).Next(kTuplesPerWindow, &out);
  return out;
}

int64_t JoinWindows(const Sizes& s, PhaseKind p) {
  if (p == PhaseKind::kSaturation) return s.join_sat_windows;
  const double per_window_s =
      static_cast<double>(kTuplesPerWindow) / kJoinRate;
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(s.latency_s / per_window_s)));
}

std::vector<AggRow> ReferenceWindowAgg(const std::vector<JoinTuple>& left,
                                       const std::vector<JoinTuple>& right,
                                       int64_t w) {
  std::vector<int64_t> rv_by_key(static_cast<size_t>(kKeySpace), -1);
  for (const JoinTuple& r : right) rv_by_key[static_cast<size_t>(r.k)] = r.v;
  std::vector<int64_t> sum(static_cast<size_t>(kGroups), 0);
  std::vector<int64_t> count(static_cast<size_t>(kGroups), 0);
  for (const JoinTuple& l : left) {
    const int64_t rv = rv_by_key[static_cast<size_t>(l.k)];
    if (rv < 0) continue;
    sum[static_cast<size_t>(l.g)] += rv;
    ++count[static_cast<size_t>(l.g)];
  }
  std::vector<AggRow> out;
  for (int64_t g = 0; g < kGroups; ++g) {
    const size_t i = static_cast<size_t>(g);
    if (count[i] == 0) continue;
    const double avg =
        static_cast<double>(sum[i]) / static_cast<double>(count[i]);
    out.push_back({WindowEnd(w), g, avg});
  }
  return out;
}

PunctPattern FeedbackPattern(int64_t w) {
  const bool hide_low = (w / 10) % 2 == 0;
  const Value half = Value::Int64(kGroups / 2);
  return PunctPattern::AllWildcard(3)
      .With(0, AttrPattern::Eq(Value::Timestamp(WindowEnd(w))))
      .With(1, hide_low ? AttrPattern::Lt(half) : AttrPattern::Ge(half));
}

WindowCheck CheckWindow(const std::vector<AggRow>& reference,
                        const std::vector<AggRow>& actual,
                        const PunctPattern* feedback) {
  // CheckCorrectExploitation keys tuples by their text rendering, which
  // rounds doubles; the average travels as its bit pattern instead, so
  // results must match exactly. The feedback pattern never constrains it.
  auto to_tuples = [](const std::vector<AggRow>& rows) {
    std::vector<Tuple> out;
    out.reserve(rows.size());
    for (const AggRow& r : rows) {
      int64_t avg_bits = 0;
      std::memcpy(&avg_bits, &r.avg, sizeof(avg_bits));
      out.push_back(
          TupleBuilder().Ts(r.window_end).I64(r.g).I64(avg_bits).Build());
    }
    return out;
  };
  // No window ends at -1, so this pattern covers nothing: Definition 1
  // then demands S == S_R.
  const PunctPattern none = PunctPattern::AllWildcard(3).With(
      0, AttrPattern::Eq(Value::Timestamp(-1)));
  const ExploitationCheck c = CheckCorrectExploitation(
      to_tuples(reference), to_tuples(actual),
      feedback != nullptr ? *feedback : none);
  return WindowCheck{c.missing_uncovered, c.extra, c.suppressed};
}

// ---- wire frames ----------------------------------------------------

namespace {

class FaninFrameSource final : public FrameSource {
 public:
  FaninFrameSource(uint64_t seed, PhaseKind p, int conn, int64_t tuples,
                   double rate)
      : stream_(seed, p, conn),
        conn_(conn),
        frames_(tuples / kFaninFrameTuples),
        paced_(p != PhaseKind::kSaturation),
        gap_ns_(static_cast<int64_t>(kFaninFrameTuples / rate * 1e9)) {}

  bool Next(int64_t t0_ns, WireFrame* out) override {
    out->bytes.clear();
    out->punct_window = -1;
    out->send_at_progress.reset();
    if (!hello_sent_) {
      hello_sent_ = true;
      out->due_off_ns = 0;
      AppendHelloFrame(&out->bytes, 4, static_cast<uint64_t>(conn_) + 1, 0);
      return true;
    }
    if (frame_ < frames_) {
      // Connections are staggered by a quarter gap so the four
      // producers do not send in lockstep.
      out->due_off_ns =
          paced_ ? frame_ * gap_ns_ + conn_ * (gap_ns_ / kFaninConns) : 0;
      const int64_t due = t0_ns > 0 ? t0_ns + out->due_off_ns : 0;
      batch_.clear();
      for (int i = 0; i < kFaninFrameTuples; ++i) {
        const FaninTuple ft = stream_.Next();
        kept_ += FaninKeep(ft.a) ? 1 : 0;
        Tuple t(nullptr, 4);
        t.Append(Value::Int64(ft.a));
        t.Append(Value::String(ft.str()));
        t.Append(Value::Int64(ft.b));
        t.Append(Value::Int64(due));
        batch_.push_back(std::move(t));
      }
      AppendTupleBatchFrame(&out->bytes, batch_);
      // The sink counts the tuples of all connections, which advance
      // alike.
      out->send_at_progress = kFaninConns * (kept_ - kFaninSatInFlight);
      ++frame_;
      return true;
    }
    if (!eos_sent_) {
      eos_sent_ = true;
      AppendEosFrame(&out->bytes);
      return true;  // due with the last data frame
    }
    return false;
  }

 private:
  FaninStream stream_;
  int conn_;
  int64_t frames_;
  bool paced_;
  int64_t gap_ns_;
  int64_t frame_ = 0;
  int64_t kept_ = 0;  // tuples sent so far that the Select keeps
  bool hello_sent_ = false;
  bool eos_sent_ = false;
  std::vector<Tuple> batch_;
};

// Sends each window's tuples in arrival order (timestamp + up to 20 ms
// of jitter), cut into 256-tuple frames, with a punctuation closing
// window w once the jitter horizon past its end has been sent. The
// latency phase spaces frames by seeded exponential gaps (a Poisson
// process at the offered rate); a punctuation goes out with the frame
// before it.
class JoinFrameSource final : public FrameSource {
 public:
  JoinFrameSource(uint64_t seed, PhaseKind p, int side, int64_t windows,
                  double rate)
      : seed_(seed),
        phase_(p),
        side_(side),
        windows_(windows),
        paced_(p != PhaseKind::kSaturation),
        ns_per_tuple_(1e9 / rate),
        order_rng_(StreamSeed(seed, kJoinOrderPurpose, p,
                              static_cast<uint64_t>(side))),
        gap_rng_(StreamSeed(seed, kJoinGapPurpose, p,
                            static_cast<uint64_t>(side))),
        buckets_(kRing) {}

  // Join tuples carry no due time: a result's latency is measured from
  // its window's closing punctuation, whose due time the generator logs.
  bool Next(int64_t /*t0_ns*/, WireFrame* out) override {
    while (ready_.empty() && !done_) Advance();
    if (ready_.empty()) return false;
    *out = std::move(ready_.front());
    ready_.pop_front();
    return true;
  }

 private:
  static constexpr int64_t kRing = 128;  // > window + jitter span

  void Advance() {
    if (!hello_sent_) {
      hello_sent_ = true;
      WireFrame f;
      AppendHelloFrame(&f.bytes, side_ == 0 ? 4 : 3, 1, 0);
      ready_.push_back(std::move(f));
      return;
    }
    const int64_t last_ms = windows_ * kWindowMs + kJitterMs - 1;
    if (ms_ > last_ms) {
      WireFrame f;
      AppendEosFrame(&f.bytes);
      f.due_off_ns = due_off_ns_;
      ready_.push_back(std::move(f));
      done_ = true;
      return;
    }
    if (ms_ < windows_ * kWindowMs) {
      if (ms_ % kWindowMs == 0) {
        window_.emplace(seed_, phase_, side_, ms_ / kWindowMs);
      }
      fresh_.clear();
      window_->Next(kTuplesPerMs, &fresh_);  // the tuples stamped ms_
      for (const JoinTuple& t : fresh_) {
        buckets_[static_cast<size_t>(t.arrival % kRing)].push_back(t);
      }
    }
    std::vector<JoinTuple>& bucket = buckets_[static_cast<size_t>(ms_ % kRing)];
    for (size_t i = bucket.size(); i > 1; --i) {
      std::swap(bucket[i - 1], bucket[order_rng_.NextBounded(i)]);
    }
    pending_.insert(pending_.end(), bucket.begin(), bucket.end());
    bucket.clear();
    while (pending_.size() - cut_ >= kJoinFrameTuples) {
      EmitData(kJoinFrameTuples);
    }
    // Every tuple of window w has arrival <= end(w) - 1 + jitter, so
    // once this millisecond is sent the window's punctuation may go.
    const int64_t closing = ms_ + 1 - kJitterMs;
    if (closing > 0 && closing % kWindowMs == 0 &&
        closing / kWindowMs <= windows_) {
      if (pending_.size() > cut_) EmitData(pending_.size() - cut_);
      const int64_t w = closing / kWindowMs - 1;
      const int arity = side_ == 0 ? 4 : 3;
      Punctuation p(PunctPattern::AllWildcard(arity).With(
          1, AttrPattern::Le(Value::Timestamp(WindowEnd(w) - 1))));
      WireFrame f;
      AppendPunctuationFrame(&f.bytes, p);
      f.due_off_ns = due_off_ns_;
      f.punct_window = w;
      f.send_at_progress = w + 1 - kSatWindowsInFlight;  // windows closed
      ready_.push_back(std::move(f));
    }
    if (cut_ == pending_.size()) {
      pending_.clear();
      cut_ = 0;
    }
    ++ms_;
  }

  void EmitData(size_t n) {
    if (paced_) {
      const double mean = static_cast<double>(n) * ns_per_tuple_;
      due_off_ns_ += static_cast<int64_t>(
          -std::log(1.0 - gap_rng_.NextDouble()) * mean);
    }
    batch_.clear();
    for (size_t i = cut_; i < cut_ + n; ++i) {
      const JoinTuple& jt = pending_[i];
      Tuple t(nullptr, side_ == 0 ? 4 : 3);
      t.Append(Value::Int64(jt.k));
      t.Append(Value::Timestamp(jt.ts));
      if (side_ == 0) t.Append(Value::Int64(jt.g));
      t.Append(Value::Int64(jt.v));
      batch_.push_back(std::move(t));
    }
    cut_ += n;
    WireFrame f;
    AppendTupleBatchFrame(&f.bytes, batch_);
    f.due_off_ns = due_off_ns_;
    ready_.push_back(std::move(f));
  }

  uint64_t seed_;
  PhaseKind phase_;
  int side_;
  int64_t windows_;
  bool paced_;
  double ns_per_tuple_;
  Rng order_rng_;
  Rng gap_rng_;
  std::optional<JoinWindowGen> window_;
  std::vector<JoinTuple> fresh_;
  std::vector<std::vector<JoinTuple>> buckets_;
  std::vector<JoinTuple> pending_;
  size_t cut_ = 0;
  std::vector<Tuple> batch_;
  std::deque<WireFrame> ready_;
  int64_t ms_ = 0;
  int64_t due_off_ns_ = 0;
  bool hello_sent_ = false;
  bool done_ = false;
};

}  // namespace

int NumConnections(WorkloadKind w) { return IsJoin(w) ? 2 : kFaninConns; }

std::unique_ptr<FrameSource> MakeFrameSource(WorkloadKind w, const Sizes& s,
                                             uint64_t seed, PhaseKind p,
                                             int conn) {
  if (!IsJoin(w)) {
    return std::make_unique<FaninFrameSource>(
        seed, p, conn, FaninTuplesPerConn(s, p), kFaninRate);
  }
  return std::make_unique<JoinFrameSource>(seed, p, conn, JoinWindows(s, p),
                                           kJoinRate);
}

}  // namespace nstream::e2e
