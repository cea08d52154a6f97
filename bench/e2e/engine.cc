#include "engine.h"

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "exec/scheduler.h"
#include "generator.h"
#include "ingest/ingest_source.h"
#include "ingest/tcp_acceptor.h"
#include "layers.h"
#include "ops/exchange.h"
#include "ops/select.h"
#include "ops/window_aggregate.h"
#include "stats.h"

namespace nstream::e2e {

namespace {

constexpr double kWaitTimeoutMs = 150'000;
constexpr int64_t kCkptPeriodNs = 250'000'000;
// The latency phase starts this long after the command, so the first
// frames are not already late when the generator reads it.
constexpr int64_t kPacedLeadNs = 2'000'000;
// A latency phase whose generator took up more than this share of frames
// later than kLateMs did not offer the intended load: the run is invalid.
// A generator slower than the offered rate falls further behind with
// every frame, so once behind it is late on nearly all of them. Host
// stalls on a shared 4-CPU VM put 3-12% of frames past kLateMs at half
// the engine's capacity and less, and the latency metrics count those
// stalls (they run from due times), so they do not invalidate a run.
constexpr double kMaxLateFrac = 0.5;

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Window closed by a "ts <= bound" punctuation: the last w with
// end(w) - 1 <= bound.
int64_t ClosedByTsBound(int64_t bound) {
  return WindowSpec::FloorDiv(bound + 1, kWindowMs) - 1;
}

// The single `attr <= bound` constraint of a watermark punctuation.
bool WatermarkBound(const Punctuation& p, int64_t* bound) {
  const std::vector<int> c = p.pattern().ConstrainedIndices();
  if (c.size() != 1) return false;
  const AttrPattern& a = p.pattern().attr(c[0]);
  if (a.op() != PatternOp::kLe) return false;
  Result<int64_t> v = a.operand().AsInt64();
  if (!v.ok()) return false;
  *bound = v.value();
  return true;
}

// ---- bench-owned operators -----------------------------------------

// The sink every plan ends in. Stamps each page with its receipt time,
// fingerprints (ingest_fanin) or records (join workloads) every result,
// and reports its progress (tuples received, windows closed) to the
// generator's progress pipe.
// For join_agg_feedback it acts as the §3.3 viewer: each time a window
// closes it issues assumed feedback for the window two ahead.
class LatencySink final : public Operator {
 public:
  LatencySink(bool join, bool feedback, int progress_fd)
      : Operator("sink", 1, 0),
        join_(join),
        feedback_(feedback),
        progress_fd_(progress_fd) {}

  Status ProcessPage(int port, Page&& page, TimeMs* tick) override {
    page_ns_ = MonoNs();
    NSTREAM_RETURN_NOT_OK(
        WalkPageElements(this, &stats_, port, std::move(page), tick));
    const int64_t received = static_cast<int64_t>(digest.count);
    if (!join_ && received >= reported_ + kFaninProgressStep) {
      return Report(received);
    }
    return Status::OK();
  }

  Status ProcessTuple(int, const Tuple& t) override {
    if (join_) {
      const Value& we = t.value(0);
      const Value& g = t.value(1);
      const Value& avg = t.value(2);
      if (!we.is_int64_rep() || !g.is_int64_rep() ||
          avg.type() != ValueType::kDouble) {
        ++malformed;
        return Status::OK();
      }
      rows.push_back({{we.unchecked_int64(), g.unchecked_int64(),
                       avg.unchecked_double()},
                      page_ns_});
      return Status::OK();
    }
    const Value& a = t.value(0);
    const Value& s = t.value(1);
    const Value& b = t.value(2);
    const Value& due = t.value(3);
    if (!a.is_int64_rep() || !s.is_string() || !b.is_int64_rep() ||
        !due.is_int64_rep()) {
      ++malformed;
      return Status::OK();
    }
    digest.Add(FaninTupleHash(a.unchecked_int64(), s.string_view(),
                              b.unchecked_int64()));
    if (due.unchecked_int64() > 0 && FaninSampled(a.unchecked_int64())) {
      latency_ms.push_back(
          static_cast<float>(Ms(page_ns_ - due.unchecked_int64())));
    }
    return Status::OK();
  }

  Status ProcessPunctuation(int, const Punctuation& p) override {
    ++stats_.puncts_in;
    int64_t window_end = 0;
    if (!join_ || !WatermarkBound(p, &window_end)) return Status::OK();
    const int64_t through = WindowSpec::FloorDiv(window_end, kWindowMs) - 1;
    if (through <= closed_) return Status::OK();
    for (int64_t w = closed_ + 1; w <= through; ++w) {
      close_ns[w] = page_ns_;
      if (feedback_) {
        SendFeedback(0, FeedbackPunctuation::Assumed(FeedbackPattern(w + 2)));
        issue_ns[w + 2] = MonoNs();
      }
    }
    closed_ = through;
    return Report(closed_ + 1);  // windows closed
  }

  Status OnAllInputsEos() override {
    eos_ns = MonoNs();
    return Operator::OnAllInputsEos();
  }

  struct Row {
    AggRow row;
    int64_t recv_ns = 0;
  };
  FaninDigest digest;
  std::vector<float> latency_ms;  // sampled fanin tuples
  std::vector<Row> rows;          // join results
  std::map<int64_t, int64_t> close_ns;  // window → punctuation receipt
  std::map<int64_t, int64_t> issue_ns;  // window → feedback issued
  int64_t eos_ns = 0;
  int64_t malformed = 0;

 private:
  // The pipe holds thousands of reports and the generator reads it
  // throughout every phase, so a write fails only if the generator died.
  Status Report(int64_t progress) {
    reported_ = progress;
    if (::write(progress_fd_, &progress, sizeof(progress)) !=
        static_cast<ssize_t>(sizeof(progress))) {
      return Status::Internal("sink: progress report failed");
    }
    return Status::OK();
  }

  bool join_;
  bool feedback_;
  int progress_fd_;
  int64_t reported_ = 0;
  int64_t page_ns_ = 0;
  int64_t closed_ = -1;
};

// Pass-through tap at a layer boundary (traced runs only). Forwards
// pages without copying, forwards punctuation, and relays feedback
// upstream, so the plan behaves as without it. Records when sampled
// fanin tuples (admission time) or each window's closing punctuation
// pass.
class Tap final : public Operator {
 public:
  Tap(std::string name, bool fanin)
      : Operator(std::move(name), 1, 1), fanin_(fanin) {}

  Status ProcessTuple(int, const Tuple& t) override {
    Emit(0, t);
    return Status::OK();
  }

  Status ProcessPage(int port, Page&& page, TimeMs* tick) override {
    if (!fanin_ && page.is_columnar()) {
      stats_.tuples_in += page.size();
      EmitPage(0, std::move(page));
      return Status::OK();
    }
    const int64_t now = MonoNs();
    return FilterPageInPlace(port, std::move(page), tick,
                             [&](const Tuple& t) {
                               if (fanin_) Sample(t, now);
                               return true;
                             });
  }

  Status ProcessPunctuation(int port, const Punctuation& p) override {
    int64_t bound = 0;
    if (!fanin_ && WatermarkBound(p, &bound)) {
      const int64_t now = MonoNs();
      const int64_t through = ClosedByTsBound(bound);
      for (int64_t w = closed_ + 1; w <= through; ++w) window_ns[w] = now;
      closed_ = std::max(closed_, through);
    }
    return Operator::ProcessPunctuation(port, p);
  }

  Status ProcessFeedback(int, const FeedbackPunctuation& fb) override {
    RelayFeedback(0, fb);
    return Status::OK();
  }

  std::vector<double> admit_ms;
  std::map<int64_t, int64_t> window_ns;

 private:
  void Sample(const Tuple& t, int64_t now) {
    const Value& a = t.value(0);
    const Value& due = t.value(3);
    if (a.is_int64_rep() && due.is_int64_rep() && due.unchecked_int64() > 0 &&
        FaninSampled(a.unchecked_int64())) {
      admit_ms.push_back(Ms(now - due.unchecked_int64()));
    }
  }

  bool fanin_;
  int64_t closed_ = -1;
};

// ---- one phase's engine ------------------------------------------------

struct PlanShape {
  int pool = 2;
  int shards = 4;
  bool taps = false;
};

struct Engine {
  ~Engine() {
    // Acceptor threads call into the scheduler (conduit wake-ups), so
    // they stop before the executor is destroyed.
    StopAcceptors();
  }

  // With `track_threads`, records the worker and acceptor thread ids
  // (traced runs read their CPU time); untraced set-ups skip the /proc
  // reads, which setup_s would count.
  Status Build(WorkloadKind w, PlanShape shape, int progress_fd,
               bool track_threads) {
    plan = std::make_unique<QueryPlan>();
    const bool join = IsJoin(w);
    const int nsources = join ? 2 : 1;
    for (int i = 0; i < nsources; ++i) {
      conduits.push_back(std::make_unique<FrameConduit>());
      IngestSourceOptions so;
      so.multi_producer = true;
      so.expected_eos_producers = join ? 1 : kFaninConns;
      const SchemaPtr schema = !join   ? FaninSchema()
                               : i == 0 ? JoinLeftSchema()
                                        : JoinRightSchema();
      sources.push_back(plan->AddOp(std::make_unique<IngestSource>(
          "ingest" + std::to_string(i), schema, conduits.back().get(), so)));
    }
    std::vector<Operator*> heads(sources.begin(), sources.end());
    if (shape.taps) {
      for (int i = 0; i < nsources; ++i) {
        Tap* tap = plan->AddOp(
            std::make_unique<Tap>("tap.ingest" + std::to_string(i), !join));
        Operator*& head = heads[static_cast<size_t>(i)];
        NSTREAM_RETURN_NOT_OK(plan->Connect(*head, *tap));
        head = tap;
        ingest_taps.push_back(tap);
      }
    }
    sink = plan->AddOp(std::make_unique<LatencySink>(
        join, w == WorkloadKind::kJoinAggFeedback, progress_fd));
    if (!join) {
      auto* sel = plan->AddOp(std::make_unique<Select>(
          "select", [](const Tuple& t) {
            const Value& a = t.value(0);
            return a.is_int64_rep() && FaninKeep(a.unchecked_int64());
          }));
      NSTREAM_RETURN_NOT_OK(plan->Connect(*heads[0], *sel));
      NSTREAM_RETURN_NOT_OK(plan->Connect(*sel, *sink));
    } else {
      JoinOptions jo;
      jo.left_keys = {0};
      jo.right_keys = {0};
      jo.left_ts = 1;
      jo.right_ts = 1;
      jo.window_join = true;
      jo.window = WindowSpec{kWindowMs, kWindowMs};
      Result<PartitionedJoinPlan> pj =
          MakePartitionedJoin(plan.get(), "join", jo, shape.shards);
      NSTREAM_RETURN_NOT_OK(pj.status());
      join_plan = pj.MoveValue();
      NSTREAM_RETURN_NOT_OK(
          plan->Connect(*heads[0], *join_plan.left_exchange));
      NSTREAM_RETURN_NOT_OK(
          plan->Connect(*heads[1], *join_plan.right_exchange));
      Operator* mid = join_plan.merge;
      if (shape.taps) {
        merge_tap = plan->AddOp(std::make_unique<Tap>("tap.merge", false));
        NSTREAM_RETURN_NOT_OK(plan->Connect(*mid, *merge_tap));
        mid = merge_tap;
      }
      WindowAggregateOptions ao;
      ao.ts_attr = 1;
      ao.group_attrs = {2};
      ao.agg_attr = 5;  // rv in (k, ts, g, lv, rts, rv)
      ao.kind = AggKind::kAvg;
      ao.window = WindowSpec{kWindowMs, kWindowMs};
      agg = plan->AddOp(std::make_unique<WindowAggregate>("agg", ao));
      NSTREAM_RETURN_NOT_OK(plan->Connect(*mid, *agg));
      NSTREAM_RETURN_NOT_OK(plan->Connect(*agg, *sink));
    }
    NSTREAM_RETURN_NOT_OK(plan->Finalize());

    auto threads = [&] {
      return track_threads ? ThreadIds() : std::vector<int>();
    };
    std::vector<int> before = threads();
    PooledExecutorOptions eo;
    eo.pool_size = shape.pool;
    exec = std::make_unique<PooledExecutor>(eo);
    std::vector<int> after = threads();
    worker_tids = NewThreads(before, after);
    for (const auto& conduit : conduits) {
      TcpAcceptorOptions ao;
      ao.max_connections = kMaxConnections;
      acceptors.push_back(std::make_unique<TcpAcceptor>(conduit.get(), ao));
      before = std::move(after);
      NSTREAM_RETURN_NOT_OK(acceptors.back()->Listen());
      after = threads();
      for (int tid : NewThreads(before, after)) acceptor_tids.push_back(tid);
    }
    Result<QueryId> id = exec->Submit(plan.get());
    NSTREAM_RETURN_NOT_OK(id.status());
    qid = id.value();
    return Status::OK();
  }

  void StopAcceptors() {
    for (auto& a : acceptors) a->Stop();
  }

  // Declaration order is teardown order reversed: the executor goes
  // before the plan it runs, the plan before the conduits it reads.
  std::vector<std::unique_ptr<FrameConduit>> conduits;
  std::unique_ptr<QueryPlan> plan;
  std::vector<std::unique_ptr<TcpAcceptor>> acceptors;
  std::unique_ptr<PooledExecutor> exec;
  QueryId qid = 0;
  std::vector<IngestSource*> sources;
  std::vector<Tap*> ingest_taps;
  Tap* merge_tap = nullptr;
  PartitionedJoinPlan join_plan;
  WindowAggregate* agg = nullptr;
  LatencySink* sink = nullptr;
  std::vector<int> worker_tids;
  std::vector<int> acceptor_tids;
};

// ---- references --------------------------------------------------------

// Reference results, computed once per phase kind and reused by every
// repetition of that phase.
class References {
 public:
  explicit References(const RunOptions& o) : o_(o) {}

  const FaninDigest& Fanin(PhaseKind p) {
    auto it = fanin_.find(p);
    if (it == fanin_.end()) {
      it = fanin_
               .emplace(p, FaninReference(o_.seed, p,
                                          FaninTuplesPerConn(o_.sizes, p)))
               .first;
    }
    return it->second;
  }

  const std::vector<std::vector<AggRow>>& Join(PhaseKind p) {
    auto it = join_.find(p);
    if (it == join_.end()) {
      std::vector<std::vector<AggRow>> windows;
      for (int64_t w = 0; w < JoinWindows(o_.sizes, p); ++w) {
        windows.push_back(ReferenceWindowAgg(
            JoinWindowTuples(o_.seed, p, 0, w),
            JoinWindowTuples(o_.seed, p, 1, w), w));
      }
      it = join_.emplace(p, std::move(windows)).first;
    }
    return it->second;
  }

 private:
  const RunOptions& o_;
  std::map<PhaseKind, FaninDigest> fanin_;
  std::map<PhaseKind, std::vector<std::vector<AggRow>>> join_;
};

// ---- phases --------------------------------------------------------------

struct PhaseData {
  PhaseKind kind = PhaseKind::kSaturation;
  PlanShape shape;
  bool warmup = false;  // checked, but left out of every metric but setup_s
  double setup_s = 0;
  double peak_rss_mb = 0;  // VmHWM reached while the phase ran
  int64_t input_tuples = 0;
  double tput_tps = 0;  // saturation: input tuples / (first byte → EOS)
  // Distributions of the phase's samples. The samples themselves are
  // dropped when the phase ends, so later phases' memory peaks do not
  // count them.
  Dist latency_ms;
  Dist feedback_ms;
  GenReport gen;
  int64_t failed = 0;
  bool invalid = false;
  std::vector<std::string> problems;
  // Layer counters over the phase.
  SchedulerStats sched;
  double cpu_wall_s = 0;
  double worker_cpu_s = 0;
  double acceptor_cpu_s = 0;
  uint64_t backpressure_pauses = 0;
  uint64_t frames_forwarded = 0;
  uint64_t guard_drops_ingest = 0;
  uint64_t guard_drops_exchange = 0;
  uint64_t join_tuples_in = 0;
  uint64_t agg_state_purged = 0;
  uint64_t feedback_issued = 0;
  std::vector<uint64_t> routed;  // per shard, both exchanges
  std::vector<double> ckpt_pause_ms;
  std::vector<double> snapshot_mb;
  // Taps (traced phases).
  Dist admit_ms;
  Dist merge_ms;
  Dist agg_close_ms;
};

struct PhaseSamples {
  std::vector<double> latency_ms;
  std::vector<double> feedback_ms;
  std::vector<double> admit_ms;
  std::vector<double> merge_ms;
  std::vector<double> agg_close_ms;
};

Status CheckpointLoop(const RunOptions& o, Engine* e, PhaseData* d) {
  const std::string path =
      o.scratch_dir + "/ckpt-" + std::to_string(::getpid()) + ".snap";
  Scheduler* sched = e->exec->scheduler();
  int64_t next = MonoNs() + kCkptPeriodNs;
  Status result = Status::OK();
  while (!sched->Done(e->qid)) {
    const int64_t now = MonoNs();
    if (now < next) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(next - now, 2'000'000)));
      continue;
    }
    const Status st = e->exec->Checkpoint(e->qid, path);
    const int64_t done = MonoNs();
    next = now + kCkptPeriodNs;
    if (!st.ok()) {
      if (!sched->Done(e->qid)) result = st;
      break;
    }
    d->ckpt_pause_ms.push_back(Ms(done - now));
    struct stat sb;
    if (::stat(path.c_str(), &sb) == 0) {
      d->snapshot_mb.push_back(static_cast<double>(sb.st_size) / (1 << 20));
    }
  }
  ::unlink(path.c_str());
  return result;
}

void CheckJoinResults(References* refs, const Engine& e, PhaseData* d) {
  const std::vector<std::vector<AggRow>>& ref = refs->Join(d->kind);
  std::map<int64_t, std::vector<AggRow>> by_window;
  for (const LatencySink::Row& r : e.sink->rows) {
    by_window[r.row.window_end / kWindowMs - 1].push_back(r.row);
  }
  int64_t missing = 0;
  int64_t extra = 0;
  for (const auto& [w, rows] : by_window) {
    if (w < 0 || w >= static_cast<int64_t>(ref.size())) {
      extra += static_cast<int64_t>(rows.size());
    }
  }
  for (size_t w = 0; w < ref.size(); ++w) {
    const int64_t wid = static_cast<int64_t>(w);
    std::optional<PunctPattern> fb;
    if (e.sink->issue_ns.count(wid) > 0) fb = FeedbackPattern(wid);
    const WindowCheck c = CheckWindow(ref[w], by_window[wid],
                                      fb.has_value() ? &*fb : nullptr);
    missing += c.missing;
    extra += c.extra;
  }
  if (missing + extra > 0) {
    d->failed += missing + extra;
    d->problems.push_back(std::string(PhaseName(d->kind)) + ": " +
                          std::to_string(missing) + " missing and " +
                          std::to_string(extra) +
                          " extra results against the reference");
  }
}

// Counters, result latency, feedback latency and tap times of a join
// phase.
void JoinPhaseResults(const Engine& e, PlanShape shape, PhaseData* d,
                      PhaseSamples* s) {
  // Due time of each window's closing punctuation, per stream.
  std::map<int64_t, int64_t> due[2];
  for (const GenReport::PunctDue& p : d->gen.punct_due) {
    due[p.conn & 1][p.window] = p.due_ns;
  }
  auto closing_due = [&](int64_t w, int64_t* out) {
    auto l = due[0].find(w);
    auto r = due[1].find(w);
    if (l == due[0].end() || r == due[1].end()) return false;
    *out = std::max(l->second, r->second);
    return true;
  };
  for (const LatencySink::Row& r : e.sink->rows) {
    int64_t d_ns = 0;
    if (closing_due(r.row.window_end / kWindowMs - 1, &d_ns)) {
      s->latency_ms.push_back(Ms(r.recv_ns - d_ns));
    }
  }
  for (const GenReport::FeedbackRx& rx : d->gen.feedback_rx) {
    auto it = e.sink->issue_ns.find(rx.window);
    if (it != e.sink->issue_ns.end()) {
      s->feedback_ms.push_back(Ms(rx.ns - it->second));
    }
  }
  for (Exchange* x : {e.join_plan.left_exchange, e.join_plan.right_exchange}) {
    d->guard_drops_exchange +=
        x->stats().input_guard_drops + x->stats().output_guard_drops;
    d->routed.resize(static_cast<size_t>(shape.shards), 0);
    for (int s = 0; s < shape.shards; ++s) {
      d->routed[static_cast<size_t>(s)] += x->routed(s);
    }
  }
  for (SymmetricHashJoin* j : e.join_plan.shards) {
    d->join_tuples_in += j->stats().tuples_in;
  }
  d->agg_state_purged = e.agg->stats().state_purged;
  d->feedback_issued = e.sink->stats().feedback_sent;

  if (shape.taps) {
    for (int side = 0; side < 2; ++side) {
      const Tap* tap = e.ingest_taps[static_cast<size_t>(side)];
      for (const auto& [w, ns] : tap->window_ns) {
        auto it = due[side].find(w);
        if (it != due[side].end()) s->admit_ms.push_back(Ms(ns - it->second));
      }
    }
    for (const auto& [w, ns] : e.merge_tap->window_ns) {
      auto l = e.ingest_taps[0]->window_ns.find(w);
      auto r = e.ingest_taps[1]->window_ns.find(w);
      if (l != e.ingest_taps[0]->window_ns.end() &&
          r != e.ingest_taps[1]->window_ns.end()) {
        s->merge_ms.push_back(Ms(ns - std::max(l->second, r->second)));
      }
      auto c = e.sink->close_ns.find(w);
      if (c != e.sink->close_ns.end()) {
        s->agg_close_ms.push_back(Ms(c->second - ns));
      }
    }
  }
}

Status RunPhase(const RunOptions& o, Generator* gen, References* refs,
                PhaseKind kind, PlanShape shape, PhaseData* d) {
  d->kind = kind;
  d->shape = shape;
  const bool join = IsJoin(o.workload);
  // Return the heap the last phase freed, so that the phase's peak
  // counts what this engine holds, not what earlier ones left behind.
  ::malloc_trim(0);
  ResetPeakRss();
  Engine e;
  const int64_t setup0 = MonoNs();
  NSTREAM_RETURN_NOT_OK(
      e.Build(o.workload, shape, gen->progress_fd(), o.trace));
  d->setup_s = static_cast<double>(MonoNs() - setup0) * 1e-9;

  const SchedulerStats s0 = e.exec->scheduler()->stats();
  const int64_t wcpu0 = SumThreadCpuNs(e.worker_tids);
  const int64_t acpu0 = SumThreadCpuNs(e.acceptor_tids);
  const int64_t c0 = MonoNs();
  PhaseCmd cmd;
  cmd.kind = static_cast<int32_t>(kind);
  cmd.nconn = NumConnections(o.workload);
  for (int i = 0; i < cmd.nconn; ++i) {
    cmd.ports[i] = e.acceptors[join ? static_cast<size_t>(i) : 0]->port();
  }
  cmd.t0_ns = kind == PhaseKind::kSaturation ? 0 : MonoNs() + kPacedLeadNs;
  NSTREAM_RETURN_NOT_OK(gen->BeginPhase(cmd));

  Status ckpt = Status::OK();
  if (o.workload == WorkloadKind::kJoinAggCkpt) ckpt = CheckpointLoop(o, &e, d);
  const Status wait = e.exec->Wait(e.qid, kWaitTimeoutMs);
  d->peak_rss_mb = PeakRssMb();
  d->cpu_wall_s = static_cast<double>(MonoNs() - c0) * 1e-9;
  d->worker_cpu_s =
      static_cast<double>(SumThreadCpuNs(e.worker_tids) - wcpu0) * 1e-9;
  d->acceptor_cpu_s =
      static_cast<double>(SumThreadCpuNs(e.acceptor_tids) - acpu0) * 1e-9;
  const SchedulerStats s1 = e.exec->scheduler()->stats();
  e.StopAcceptors();  // closes the connections: the generator's drain ends
  const Status gs = gen->EndPhase(&d->gen);
  NSTREAM_RETURN_NOT_OK(wait);
  NSTREAM_RETURN_NOT_OK(ckpt);
  NSTREAM_RETURN_NOT_OK(gs);
  if (!d->gen.error.empty()) return Status::Internal(d->gen.error);

  d->sched.slices = s1.slices - s0.slices;
  d->sched.wakes_delivered = s1.wakes_delivered - s0.wakes_delivered;
  d->sched.wakes_coalesced = s1.wakes_coalesced - s0.wakes_coalesced;
  for (const auto& a : e.acceptors) {
    const AcceptorStats st = a->StatsReport();
    d->backpressure_pauses += st.backpressure_pauses;
    d->frames_forwarded += st.frames_forwarded;
  }

  // Frames: every one attempted must have been sent and admitted.
  const std::string phase = PhaseName(kind);
  const int64_t unsent = d->gen.frames_attempted - d->gen.frames_sent;
  if (unsent > 0 || d->gen.errors_rx > 0) {
    d->failed += unsent + d->gen.errors_rx;
    d->problems.push_back(phase + ": " + std::to_string(unsent) +
                          " frames unsent, " +
                          std::to_string(d->gen.errors_rx) +
                          " quarantine notices");
  }
  const int64_t per_source =
      join ? JoinWindows(o.sizes, kind) * kTuplesPerWindow
           : kFaninConns * FaninTuplesPerConn(o.sizes, kind);
  for (IngestSource* src : e.sources) {
    d->guard_drops_ingest += src->stats().input_guard_drops;
    const int64_t received = static_cast<int64_t>(
        src->stats().tuples_out + src->stats().input_guard_drops);
    d->input_tuples += received;
    const int64_t bad = static_cast<int64_t>(src->quarantined_frames() +
                                             src->quarantined_producers());
    if (received != per_source || bad > 0) {
      d->failed +=
          std::max<int64_t>(1, std::llabs(received - per_source) + bad);
      d->problems.push_back(phase + ": " + src->name() + " admitted " +
                            std::to_string(received) + " of " +
                            std::to_string(per_source) + " tuples, " +
                            std::to_string(bad) + " quarantined");
    }
  }
  if (e.sink->malformed > 0) {
    d->failed += e.sink->malformed;
    d->problems.push_back(phase + ": malformed results at the sink");
  }

  if (kind == PhaseKind::kSaturation) {
    const int64_t wall = e.sink->eos_ns - d->gen.first_send_ns;
    if (wall > 0) {
      d->tput_tps = static_cast<double>(d->input_tuples) /
                    (static_cast<double>(wall) * 1e-9);
    }
  }
  if (kind == PhaseKind::kLatency && d->gen.late_frac > kMaxLateFrac) {
    d->invalid = true;
    d->problems.push_back(phase + ": generator took up " +
                          std::to_string(d->gen.late_frac * 100) +
                          "% of frames more than 5 ms late; the offered "
                          "load was not met");
  }

  PhaseSamples s;
  if (!join) {
    const FaninDigest& want = refs->Fanin(kind);
    if (!(e.sink->digest == want)) {
      d->failed += std::max<int64_t>(
          1, std::llabs(static_cast<int64_t>(want.count) -
                        static_cast<int64_t>(e.sink->digest.count)));
      d->problems.push_back(phase + ": sink saw " +
                            std::to_string(e.sink->digest.count) +
                            " tuples, reference " + std::to_string(want.count) +
                            " (or contents differ)");
    }
    s.latency_ms.assign(e.sink->latency_ms.begin(), e.sink->latency_ms.end());
    if (shape.taps) s.admit_ms = e.ingest_taps[0]->admit_ms;
  } else {
    CheckJoinResults(refs, e, d);
    JoinPhaseResults(e, shape, d, &s);
  }
  d->latency_ms = Distribution(std::move(s.latency_ms));
  d->feedback_ms = Distribution(std::move(s.feedback_ms));
  d->admit_ms = Distribution(std::move(s.admit_ms));
  d->merge_ms = Distribution(std::move(s.merge_ms));
  d->agg_close_ms = Distribution(std::move(s.agg_close_ms));
  return Status::OK();
}

// ---- metrics -------------------------------------------------------------

std::string JoinValues(const std::vector<double>& v) {
  std::string s;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

void AddDist(std::vector<Metric>* out, const std::string& prefix,
             const Dist& d, bool with_tail) {
  const std::string n = "n=" + std::to_string(d.n);
  out->push_back({prefix + "_p50_ms", d.p50, "ms", n});
  out->push_back({prefix + "_p99_ms", d.p99, "ms", n});
  if (with_tail) {
    out->push_back({prefix + "_p999_ms", d.p999, "ms", n});
    out->push_back({prefix + "_max_ms", d.max, "ms", n});
  }
}

void UntracedMetrics(const RunOptions& o, const std::vector<PhaseData>& all,
                     WorkloadReport* rep) {
  std::vector<double> tps;
  std::vector<double> rss;
  std::vector<double> setups;
  const PhaseData* lat = nullptr;
  for (const PhaseData& p : all) {
    setups.push_back(p.setup_s);
    if (p.warmup) continue;
    if (p.kind == PhaseKind::kSaturation) {
      tps.push_back(p.tput_tps);
      rss.push_back(p.peak_rss_mb);
    }
    if (p.kind == PhaseKind::kLatency) lat = &p;
  }
  rep->metrics.push_back({"setup_s", Median(setups), "s",
                          "median of " + std::to_string(setups.size()) +
                              " set-ups: " + JoinValues(setups)});
  rep->metrics.push_back({"peak_rss_mb", Median(rss), "MiB",
                          "median over saturation reps of the VmHWM each "
                          "reached: " +
                              JoinValues(rss)});

  // Throughput and result latency move with the host's speed by more
  // than any useful bound (see README.md), so they are recorded here
  // and reported by the traced run, but not gated.
  rep->extras.push_back({"throughput_tps", Median(tps), "tuples/s",
                         "median of " + std::to_string(tps.size()) +
                             " saturation reps: " + JoinValues(tps)});
  const Dist& ld = lat->latency_ms;
  const std::string n = "n=" + std::to_string(ld.n);
  rep->extras.push_back({"latency_p50_ms", ld.p50, "ms", n});
  rep->extras.push_back({"latency_p99_ms", ld.p99, "ms", n});
  rep->extras.push_back({"latency_p999_ms", ld.p999, "ms", n});
  rep->extras.push_back({"latency_max_ms", ld.max, "ms", n});
  rep->extras.push_back({"latency_phase_rss_mb", lat->peak_rss_mb, "MiB",
                         "VmHWM reached in the latency phase"});
  if (o.workload == WorkloadKind::kJoinAggFeedback) {
    const Dist& fd = lat->feedback_ms;
    rep->extras.push_back({"feedback_latency_p50_ms", fd.p50, "ms",
                           "n=" + std::to_string(fd.n)});
  }
  rep->extras.push_back(
      {"error_rate",
       rep->attempted > 0 ? static_cast<double>(rep->failed) /
                                static_cast<double>(rep->attempted)
                          : 0,
       "fraction",
       std::to_string(rep->failed) + " of " + std::to_string(rep->attempted) +
           " frames"});
  rep->extras.push_back({"gen.send_lag_p99_ms", lat->gen.lag_p99_ms, "ms",
                         "n=" + std::to_string(lat->gen.lag_count)});
  rep->extras.push_back({"gen.late_frac", lat->gen.late_frac, "fraction",
                         "frames taken up > 5 ms late; above 0.5 the run is "
                         "invalid"});
}

void TracedMetrics(const RunOptions& o, const std::vector<PhaseData>& all,
                   const ReplayCosts& replay, WorkloadReport* rep) {
  const bool join = IsJoin(o.workload);
  std::vector<const PhaseData*> usat;
  std::vector<const PhaseData*> tsat;
  const PhaseData* pool1 = nullptr;
  const PhaseData* tlat = nullptr;
  for (const PhaseData& p : all) {
    if (p.warmup) continue;
    if (p.kind == PhaseKind::kSaturation && p.shape.pool == 1) {
      pool1 = &p;
    } else if (p.kind == PhaseKind::kSaturation) {
      (p.shape.taps ? tsat : usat).push_back(&p);
    } else if (p.kind == PhaseKind::kLatency) {
      tlat = &p;
    }
  }
  auto median_of = [](const std::vector<const PhaseData*>& ps,
                      double PhaseData::*field) {
    std::vector<double> v;
    for (const PhaseData* p : ps) v.push_back(p->*field);
    return Median(v);
  };
  auto median_tps = [&](const std::vector<const PhaseData*>& ps) {
    return median_of(ps, &PhaseData::tput_tps);
  };
  double cpu_wall = 0;
  double worker = 0;
  double acceptor = 0;
  double tuples = 0;
  double slices = 0;
  double delivered = 0;
  double coalesced = 0;
  double pauses = 0;
  double forwarded = 0;
  std::vector<double> routed;
  for (const PhaseData* p : tsat) {
    cpu_wall += p->cpu_wall_s;
    worker += p->worker_cpu_s;
    acceptor += p->acceptor_cpu_s;
    tuples += static_cast<double>(p->input_tuples);
    slices += static_cast<double>(p->sched.slices);
    delivered += static_cast<double>(p->sched.wakes_delivered);
    coalesced += static_cast<double>(p->sched.wakes_coalesced);
    pauses += static_cast<double>(p->backpressure_pauses);
    forwarded += static_cast<double>(p->frames_forwarded);
    routed.resize(p->routed.size(), 0);
    for (size_t s = 0; s < p->routed.size(); ++s) {
      routed[s] += static_cast<double>(p->routed[s]);
    }
  }
  const double reps = static_cast<double>(std::max<size_t>(1, tsat.size()));
  const double ktuples = std::max(1.0, tuples / 1000);
  double skew = 0;
  if (!routed.empty()) {
    double sum = 0;
    for (double r : routed) sum += r;
    if (sum > 0) {
      skew = *std::max_element(routed.begin(), routed.end()) /
             (sum / static_cast<double>(routed.size()));
    }
  }
  std::vector<double> snap_mb;
  std::vector<double> pause_ms;
  for (const PhaseData& p : all) {
    if (!p.shape.taps) continue;
    snap_mb.insert(snap_mb.end(), p.snapshot_mb.begin(), p.snapshot_mb.end());
    pause_ms.insert(pause_ms.end(), p.ckpt_pause_ms.begin(),
                    p.ckpt_pause_ms.end());
  }
  const std::string over_sat =
      "traced saturation reps, n=" + std::to_string(tsat.size());
  std::vector<Metric>& m = rep->metrics;
  const double untraced = median_tps(usat);
  m.push_back({"e2e.throughput_tps", untraced, "tuples/s",
               "untraced saturation reps, n=" + std::to_string(usat.size())});
  const Dist& ld = tlat->latency_ms;
  m.push_back({"e2e.latency_p50_ms", ld.p50, "ms",
               "traced latency phase, n=" + std::to_string(ld.n)});
  m.push_back({"e2e.latency_p99_ms", ld.p99, "ms",
               "traced latency phase, n=" + std::to_string(ld.n)});
  m.push_back({"gen.send_lag_p99_ms", tlat->gen.lag_p99_ms, "ms",
               "n=" + std::to_string(tlat->gen.lag_count) + ", late>5ms " +
                   std::to_string(tlat->gen.late_frac)});
  m.push_back({"gen.backlog_max_kb",
               static_cast<double>(tlat->gen.backlog_max_bytes) / 1024, "KiB",
               "latency phase"});
  m.push_back({"ingest.acceptor_cpu_util", acceptor / std::max(cpu_wall, 1e-9),
               "fraction", over_sat});
  m.push_back({"ingest.parse_ns_per_tuple", replay.parse_ns_per_tuple, "ns",
               "replay"});
  AddDist(&m, "ingest.admit", tlat->admit_ms, false);
  m.push_back({"ingest.backpressure_pauses", pauses / reps, "count",
               "per rep, " + over_sat});
  m.push_back({"ingest.frames_forwarded", forwarded / reps, "count",
               "per rep, " + over_sat});
  m.push_back({"exec.worker_cpu_util",
               worker / std::max(cpu_wall * 2, 1e-9), "fraction", over_sat});
  m.push_back({"exec.slices_per_ktuple", slices / ktuples, "count", over_sat});
  m.push_back(
      {"exec.wakes_per_ktuple", delivered / ktuples, "count", over_sat});
  m.push_back({"exec.coalesced_wake_frac",
               coalesced / std::max(1.0, delivered + coalesced), "fraction",
               over_sat});
  m.push_back({"exec.pool1_shards1_tps", pool1 != nullptr ? pool1->tput_tps : 0,
               "tuples/s", "1 worker, 1 shard, untraced"});
  m.push_back(
      {"ops.shard_skew", skew, "ratio", "max/mean routed, " + over_sat});
  m.push_back({"ops.agg_state_peak", static_cast<double>(replay.agg_state_peak),
               "count", "replay"});
  m.push_back({"ops.exchange_ns_per_tuple", replay.exchange_ns_per_tuple, "ns",
               "replay"});
  m.push_back({"ops.join_ns_per_tuple", replay.join_ns_per_tuple, "ns",
               "replay"});
  m.push_back({"ops.agg_ns_per_tuple", replay.agg_ns_per_tuple, "ns",
               "replay"});
  AddDist(&m, "ops.merge", tlat->merge_ms, false);
  AddDist(&m, "ops.agg_close", tlat->agg_close_ms, false);
  // Feedback counters come from the latency phase, where the feedback
  // for a window leads its data by ~70 ms. In a saturation rep it races
  // the data it names (see kSatWindowsInFlight).
  const std::string over_lat = "traced latency phase";
  const double lat_in = static_cast<double>(tlat->input_tuples);
  m.push_back({"punct.feedback_issued",
               static_cast<double>(tlat->feedback_issued), "count", over_lat});
  m.push_back({"punct.guard_drops_ingest",
               static_cast<double>(tlat->guard_drops_ingest), "count",
               over_lat});
  m.push_back({"punct.guard_drops_exchange",
               static_cast<double>(tlat->guard_drops_exchange), "count",
               over_lat});
  m.push_back({"punct.state_purged",
               static_cast<double>(tlat->agg_state_purged), "count",
               "WindowAggregate purges, " + over_lat});
  m.push_back({"punct.work_avoided_frac",
               join && lat_in > 0
                   ? 1.0 - static_cast<double>(tlat->join_tuples_in) / lat_in
                   : 0,
               "fraction",
               "tuples not reaching the join / input tuples, " + over_lat});
  const Dist& fd = tlat->feedback_ms;
  m.push_back({"punct.feedback_latency_p50_ms", fd.p50, "ms",
               "n=" + std::to_string(fd.n)});
  const Dist pd = Distribution(pause_ms);
  m.push_back({"recovery.ckpt_pause_ms_p50", pd.p50, "ms",
               "n=" + std::to_string(pd.n)});
  m.push_back({"recovery.ckpt_pause_ms_max", pd.max, "ms",
               "n=" + std::to_string(pd.n)});
  m.push_back({"recovery.snapshot_mb", Median(snap_mb), "MiB",
               "n=" + std::to_string(snap_mb.size())});
  m.push_back({"trace.overhead_frac",
               untraced > 0 ? 1.0 - median_tps(tsat) / untraced : 0, "fraction",
               "1 - traced/untraced median saturation throughput"});

  std::vector<Metric>& x = rep->extras;
  x.push_back({"recovery.snapshot_mb_max",
               snap_mb.empty()
                   ? 0
                   : *std::max_element(snap_mb.begin(), snap_mb.end()),
               "MiB", "n=" + std::to_string(snap_mb.size())});
  x.push_back(
      {"traced.throughput_tps", median_tps(tsat), "tuples/s", over_sat});
}

}  // namespace

Status RunWorkload(const RunOptions& o, WorkloadReport* rep) {
  *rep = WorkloadReport();
  Generator gen;
  NSTREAM_RETURN_NOT_OK(gen.Start(o.workload, o.sizes, o.seed));
  References refs(o);
  std::vector<PhaseData> phases;
  auto run = [&](PhaseKind kind, PlanShape shape, bool warmup) -> Status {
    phases.emplace_back();
    PhaseData& d = phases.back();
    d.warmup = warmup;
    NSTREAM_RETURN_NOT_OK(RunPhase(o, &gen, &refs, kind, shape, &d));
    rep->attempted += d.gen.frames_attempted;
    rep->failed += d.failed;
    if (d.failed > 0 || d.invalid) rep->correct = false;
    rep->problems.insert(rep->problems.end(), d.problems.begin(),
                         d.problems.end());
    return Status::OK();
  };

  const PlanShape base;
  PlanShape traced;
  traced.taps = true;
  // The first saturation reps of a process run measurably slower, so
  // they only warm up. The latency phase runs last: a host stall there
  // backs its open-loop input up into the engine's queues, and the heap
  // that grows then stays with the process (malloc_trim does not return
  // a thread arena's top), so saturation reps after it would read a
  // higher peak_rss_mb.
  for (int r = 0; r < o.sizes.warmup_reps; ++r) {
    NSTREAM_RETURN_NOT_OK(run(PhaseKind::kSaturation, base, true));
  }
  // Saturation reps until the time is up. A traced run pairs each
  // untraced rep with a traced one, so that trace.overhead_frac compares
  // reps measured side by side, and ends with one single-threaded rep.
  const int64_t end = MonoNs() + static_cast<int64_t>(o.sizes.sat_s * 1e9);
  for (int r = 0; r < o.sizes.min_sat_reps || MonoNs() < end; ++r) {
    NSTREAM_RETURN_NOT_OK(run(PhaseKind::kSaturation, base, false));
    if (o.trace) {
      NSTREAM_RETURN_NOT_OK(run(PhaseKind::kSaturation, traced, false));
    }
  }
  if (o.trace) {
    PlanShape single;
    single.pool = 1;
    single.shards = 1;
    NSTREAM_RETURN_NOT_OK(run(PhaseKind::kSaturation, single, false));
  }
  NSTREAM_RETURN_NOT_OK(
      run(PhaseKind::kLatency, o.trace ? traced : base, false));
  gen.Stop();
  if (!o.trace) {
    UntracedMetrics(o, phases, rep);
    return Status::OK();
  }
  ReplayCosts replay;
  NSTREAM_RETURN_NOT_OK(ReplayLayers(o.workload, o.sizes, o.seed, &replay));
  TracedMetrics(o, phases, replay, rep);
  return Status::OK();
}

}  // namespace nstream::e2e
