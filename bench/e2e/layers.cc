#include "layers.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "ingest/wire_format.h"
#include "ops/exchange.h"
#include "ops/window_aggregate.h"
#include "stats.h"

namespace nstream::e2e {

namespace {

// Replay size: enough pages for steady state, small enough to keep the
// traced run short.
constexpr int64_t kParseTuples = 1 << 17;
constexpr int kParsePasses = 3;
constexpr int64_t kReplayWindows = 10;

// An ExecContext that records what an operator emits, in order, as
// pages for the next operator — nothing is queued or scheduled.
class CaptureContext final : public ExecContext {
 public:
  struct Out {
    int port = 0;
    Page page;
  };

  std::vector<Out> Take() {
    for (auto& [port, page] : open_) Flush(port);
    return std::exchange(outs_, {});
  }

  void EmitTuple(int port, Tuple t) override {
    open_[port].AddTuple(std::move(t));
  }
  void EmitPunct(int port, Punctuation p) override {
    Flush(port);
    Page page;
    page.Add(StreamElement::OfPunct(std::move(p)));
    outs_.push_back({port, std::move(page)});
  }
  void EmitEos(int port) override {
    Flush(port);
    Page page;
    page.Add(StreamElement::Eos());
    outs_.push_back({port, std::move(page)});
  }
  void EmitPage(int port, Page&& page) override {
    Flush(port);
    outs_.push_back({port, std::move(page)});
  }
  bool PagedEmissionPreferred() const override { return true; }
  void EmitFeedback(int, FeedbackPunctuation) override {}
  void EmitControl(int, ControlMessage) override {}
  TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}

 private:
  void Flush(int port) {
    auto it = open_.find(port);
    if (it == open_.end() || it->second.empty()) return;
    outs_.push_back({port, std::move(it->second)});
    it->second = Page();
  }

  std::map<int, Page> open_;
  std::vector<Out> outs_;
};

// Wire frames of one connection's saturation stream, hello and EOS
// excluded, up to `max_tuples` tuples or `max_windows` punctuations.
std::vector<std::string> SaturationFrames(WorkloadKind w, const Sizes& s,
                                          uint64_t seed, int conn,
                                          int64_t max_tuples,
                                          int64_t max_windows) {
  std::unique_ptr<FrameSource> src =
      MakeFrameSource(w, s, seed, PhaseKind::kSaturation, conn);
  std::vector<std::string> out;
  WireFrame f;
  int64_t tuples = 0;
  int64_t windows = 0;
  while (tuples < max_tuples && windows < max_windows && src->Next(0, &f)) {
    FrameView v;
    size_t consumed = 0;
    if (!ScanFrame(f.bytes, &v, &consumed).ok()) continue;
    if (v.type == FrameType::kTupleBatch) {
      uint32_t count = 0;
      std::memcpy(&count, v.payload.data(), sizeof(count));
      tuples += count;
    } else if (v.type == FrameType::kPunctuation) {
      ++windows;
    } else {
      continue;
    }
    out.push_back(std::move(f.bytes));
  }
  return out;
}

// One frame as the IngestSource would emit it: a tuple page, or a page
// holding the punctuation.
Status FrameToPage(const std::string& bytes, uint32_t arity, int64_t* next_id,
                   Page* page) {
  FrameView v;
  size_t consumed = 0;
  NSTREAM_RETURN_NOT_OK(ScanFrame(bytes, &v, &consumed));
  if (v.type == FrameType::kTupleBatch) {
    return DecodeTupleBatchInto(v.payload, arity, page,
                                /*allow_columnar=*/true, next_id);
  }
  Punctuation p;
  NSTREAM_RETURN_NOT_OK(DecodePunctuation(v.payload, &p));
  page->Add(StreamElement::OfPunct(std::move(p)));
  return Status::OK();
}

Status ReplayParse(WorkloadKind w, const Sizes& s, uint64_t seed,
                   ReplayCosts* out) {
  const uint32_t arity =
      static_cast<uint32_t>((IsJoin(w) ? JoinLeftSchema() : FaninSchema())
                                ->num_fields());
  const std::vector<std::string> frames =
      SaturationFrames(w, s, seed, 0, kParseTuples, INT64_MAX);
  std::vector<double> per_tuple;
  for (int pass = 0; pass < kParsePasses; ++pass) {
    int64_t tuples = 0;
    int64_t next_id = 1;
    const int64_t t0 = MonoNs();
    for (const std::string& bytes : frames) {
      FrameView v;
      size_t consumed = 0;
      NSTREAM_RETURN_NOT_OK(ScanFrame(bytes, &v, &consumed));
      if (v.type != FrameType::kTupleBatch) continue;
      Page page;
      NSTREAM_RETURN_NOT_OK(DecodeTupleBatchInto(v.payload, arity, &page,
                                                 true, &next_id));
      tuples += static_cast<int64_t>(page.size());
    }
    if (tuples > 0) {
      per_tuple.push_back(static_cast<double>(MonoNs() - t0) /
                          static_cast<double>(tuples));
    }
  }
  out->parse_ns_per_tuple = Median(per_tuple);
  return Status::OK();
}

// Exchange → 4 join shards → ShardMerge → WindowAggregate, driven one
// input frame at a time, each stage's output handed straight to the
// next; every ProcessPage call is timed.
Status ReplayOperators(const Sizes& s, uint64_t seed, ReplayCosts* out) {
  constexpr int kShards = 4;
  const SchemaPtr left = JoinLeftSchema();
  const SchemaPtr right = JoinRightSchema();

  ExchangeOptions lx;
  lx.partition_keys = {0};
  ExchangeOptions rx;
  rx.partition_keys = {0};
  Exchange xchg[2] = {Exchange("xchg.left", kShards, lx),
                      Exchange("xchg.right", kShards, rx)};
  std::vector<std::unique_ptr<SymmetricHashJoin>> shards;
  ShardMergeOptions mo;
  mo.partition_keys = {0};
  ShardMerge merge("merge", kShards, mo);
  WindowAggregateOptions ao;
  ao.ts_attr = 1;
  ao.group_attrs = {2};
  ao.agg_attr = 5;
  ao.kind = AggKind::kAvg;
  ao.window = WindowSpec{kWindowMs, kWindowMs};
  WindowAggregate agg("agg", ao);

  CaptureContext cx[2];
  std::vector<CaptureContext> cj(kShards);
  CaptureContext cm;
  CaptureContext ca;
  for (int side = 0; side < 2; ++side) {
    NSTREAM_RETURN_NOT_OK(
        xchg[side].SetInputSchema(0, side == 0 ? left : right));
    NSTREAM_RETURN_NOT_OK(xchg[side].InferSchemas());
    NSTREAM_RETURN_NOT_OK(xchg[side].Open(&cx[side]));
  }
  for (int i = 0; i < kShards; ++i) {
    JoinOptions jo;
    jo.left_keys = {0};
    jo.right_keys = {0};
    jo.left_ts = 1;
    jo.right_ts = 1;
    jo.window_join = true;
    jo.window = WindowSpec{kWindowMs, kWindowMs};
    jo.shard_index = i;
    jo.shard_count = kShards;
    shards.push_back(std::make_unique<SymmetricHashJoin>(
        "join.shard" + std::to_string(i), jo));
    NSTREAM_RETURN_NOT_OK(shards.back()->SetInputSchema(0, left));
    NSTREAM_RETURN_NOT_OK(shards.back()->SetInputSchema(1, right));
    NSTREAM_RETURN_NOT_OK(shards.back()->InferSchemas());
    NSTREAM_RETURN_NOT_OK(shards.back()->Open(&cj[static_cast<size_t>(i)]));
  }
  const SchemaPtr joined = shards[0]->output_schema(0);
  for (int i = 0; i < kShards; ++i) {
    NSTREAM_RETURN_NOT_OK(merge.SetInputSchema(i, joined));
  }
  NSTREAM_RETURN_NOT_OK(merge.InferSchemas());
  NSTREAM_RETURN_NOT_OK(merge.Open(&cm));
  NSTREAM_RETURN_NOT_OK(agg.SetInputSchema(0, joined));
  NSTREAM_RETURN_NOT_OK(agg.InferSchemas());
  NSTREAM_RETURN_NOT_OK(agg.Open(&ca));

  // Frames alternate left/right, as the two producers interleave.
  const std::vector<std::string> frames[2] = {
      SaturationFrames(WorkloadKind::kJoinAgg, s, seed, 0, INT64_MAX,
                       kReplayWindows),
      SaturationFrames(WorkloadKind::kJoinAgg, s, seed, 1, INT64_MAX,
                       kReplayWindows)};
  int64_t t_xchg = 0;
  int64_t t_join = 0;
  int64_t t_agg = 0;
  int64_t next_id[2] = {1, 1};
  auto timed = [](int64_t* acc, auto&& fn) {
    const int64_t t0 = MonoNs();
    Status st = fn();
    *acc += MonoNs() - t0;
    return st;
  };
  for (size_t i = 0; i < std::max(frames[0].size(), frames[1].size()); ++i) {
    for (int side = 0; side < 2; ++side) {
      if (i >= frames[side].size()) continue;
      Page page;
      NSTREAM_RETURN_NOT_OK(FrameToPage(
          frames[side][i],
          static_cast<uint32_t>((side == 0 ? left : right)->num_fields()),
          &next_id[side], &page));
      NSTREAM_RETURN_NOT_OK(timed(&t_xchg, [&] {
        return xchg[side].ProcessPage(0, std::move(page), nullptr);
      }));
      for (CaptureContext::Out& xo : cx[side].Take()) {
        const int shard = xo.port;
        NSTREAM_RETURN_NOT_OK(timed(&t_join, [&] {
          return shards[static_cast<size_t>(shard)]->ProcessPage(
              side, std::move(xo.page), nullptr);
        }));
        for (CaptureContext::Out& jo : cj[static_cast<size_t>(shard)].Take()) {
          NSTREAM_RETURN_NOT_OK(
              merge.ProcessPage(shard, std::move(jo.page), nullptr));
          for (CaptureContext::Out& mo_out : cm.Take()) {
            NSTREAM_RETURN_NOT_OK(timed(&t_agg, [&] {
              return agg.ProcessPage(0, std::move(mo_out.page), nullptr);
            }));
            out->agg_state_peak = std::max(
                out->agg_state_peak, static_cast<int64_t>(agg.state_size()));
            ca.Take();
          }
        }
      }
    }
  }
  auto per_tuple = [](int64_t ns, uint64_t tuples) {
    return tuples == 0 ? 0.0
                       : static_cast<double>(ns) / static_cast<double>(tuples);
  };
  uint64_t join_in = 0;
  for (const auto& shard : shards) join_in += shard->stats().tuples_in;
  out->exchange_ns_per_tuple = per_tuple(
      t_xchg, xchg[0].stats().tuples_in + xchg[1].stats().tuples_in);
  out->join_ns_per_tuple = per_tuple(t_join, join_in);
  out->agg_ns_per_tuple = per_tuple(t_agg, agg.stats().tuples_in);
  return Status::OK();
}

}  // namespace

Status ReplayLayers(WorkloadKind w, const Sizes& s, uint64_t seed,
                    ReplayCosts* out) {
  *out = ReplayCosts();
  NSTREAM_RETURN_NOT_OK(ReplayParse(w, s, seed, out));
  if (IsJoin(w)) NSTREAM_RETURN_NOT_OK(ReplayOperators(s, seed, out));
  return Status::OK();
}

}  // namespace nstream::e2e
