#include "selftest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "generator.h"
#include "ingest/wire_format.h"
#include "stats.h"
#include "workload.h"

namespace nstream::e2e {

namespace {

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

// Calls fn(frame) for each whole frame in `bytes`; false if a frame is
// malformed or `bytes` ends inside one.
template <typename Fn>
bool ForEachFrame(std::string_view bytes, Fn fn) {
  while (!bytes.empty()) {
    FrameView f;
    size_t consumed = 0;
    if (!ScanFrame(bytes, &f, &consumed).ok() || consumed == 0 || !fn(f)) {
      return false;
    }
    bytes.remove_prefix(consumed);
  }
  return true;
}

bool CheckPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  const Dist d = Distribution(v);
  // Quartiles of {1,2,3,4} as Python's statistics.quantiles(..., n=4,
  // method="inclusive") gives them: 1.75, 2.5, 3.25.
  const std::vector<double> four = {1, 2, 3, 4};
  return d.n == 101 && Near(d.p50, 51) && Near(d.p99, 100) &&
         Near(d.p999, 100.9) && Near(d.max, 101) &&
         Near(PercentileSorted(four, 25), 1.75) &&
         Near(PercentileSorted(four, 50), 2.5) &&
         Near(PercentileSorted(four, 75), 3.25) &&
         Near(Median({3, 1, 2}), 2) && Near(Median({}), 0);
}

bool SameRows(const std::vector<AggRow>& a, const std::vector<AggRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].window_end != b[i].window_end || a[i].g != b[i].g ||
        a[i].avg != b[i].avg) {
      return false;
    }
  }
  return true;
}

// Three windows worked by hand. Window 0: keys 1 and 65 (both g = 1)
// match rv 10 and 30 → AVG 20; key 2 (g = 2) has no partner. Window 1:
// keys 2 and 66 (both g = 2) match rv 5 and 8 → AVG 6.5. Window 2:
// nothing matches → no rows.
bool CheckReferenceJoin() {
  auto l = [](int64_t k) { return JoinTuple{k, 0, k % kGroups, 0, 0}; };
  auto r = [](int64_t k, int64_t v) { return JoinTuple{k, 0, 0, v, 0}; };
  const std::vector<JoinTuple> left[3] = {
      {l(1), l(2), l(65)}, {l(2), l(66)}, {l(7)}};
  const std::vector<JoinTuple> right[3] = {
      {r(1, 10), r(65, 30), r(3, 7)}, {r(2, 5), r(66, 8), r(4, 9)}, {r(8, 1)}};
  const std::vector<AggRow> want[3] = {
      {{100, 1, 20.0}}, {{200, 2, 6.5}}, {}};
  for (int w = 0; w < 3; ++w) {
    if (!SameRows(ReferenceWindowAgg(left[w], right[w], w), want[w])) {
      return false;
    }
  }
  return true;
}

bool CheckDefinitionOne() {
  const int64_t w = 12;  // hides g >= 32
  std::vector<AggRow> reference;
  for (int64_t g = 0; g < kGroups; ++g) {
    reference.push_back({WindowEnd(w), g, static_cast<double>(g) + 0.5});
  }
  const PunctPattern f = FeedbackPattern(w);
  std::vector<AggRow> exploited;
  for (const AggRow& r : reference) {
    if (r.g < kGroups / 2) exploited.push_back(r);
  }
  const WindowCheck ok = CheckWindow(reference, exploited, &f);
  const WindowCheck null_response = CheckWindow(reference, reference, &f);
  std::vector<AggRow> forged = exploited;
  forged.push_back({WindowEnd(w), 3, 99.0});  // not in S_R
  const WindowCheck extra = CheckWindow(reference, forged, &f);
  std::vector<AggRow> nudged = exploited;  // one result off in the last bit
  nudged[0].avg = std::nextafter(nudged[0].avg, 1e9);
  const WindowCheck inexact = CheckWindow(reference, nudged, &f);
  std::vector<AggRow> lost = exploited;
  lost.erase(lost.begin());  // an uncovered result dropped
  const WindowCheck missing = CheckWindow(reference, lost, &f);
  const WindowCheck unfed = CheckWindow(reference, exploited, nullptr);
  return ok.missing == 0 && ok.extra == 0 && ok.suppressed == kGroups / 2 &&
         null_response.missing == 0 && null_response.extra == 0 &&
         extra.extra == 1 && extra.missing == 0 && missing.missing == 1 &&
         inexact.extra == 1 && inexact.missing == 1 &&
         unfed.missing == kGroups / 2;
}

bool CheckGeneratorDeterminism() {
  const Sizes s = Sizes::Smoke();
  for (WorkloadKind w : {WorkloadKind::kIngestFanin, WorkloadKind::kJoinAgg}) {
    for (PhaseKind p : {PhaseKind::kSaturation, PhaseKind::kLatency}) {
      const std::string a = EncodeConnection(w, s, 7, p, 1, 12345).bytes;
      const std::string b = EncodeConnection(w, s, 7, p, 1, 12345).bytes;
      const std::string c = EncodeConnection(w, s, 8, p, 1, 12345).bytes;
      if (a.empty() || a != b || a == c) return false;
    }
  }
  return true;
}

// The bytes the generator sends carry exactly the tuples the reference
// is computed from: the fanin digest matches, and every join tuple
// precedes the punctuation closing its window.
bool CheckGeneratorAgainstReference() {
  const Sizes s = Sizes::Smoke();
  const PhaseKind p = PhaseKind::kLatency;
  FaninDigest digest;
  for (int c = 0; c < kFaninConns; ++c) {
    const std::string bytes =
        EncodeConnection(WorkloadKind::kIngestFanin, s, 3, p, c, 1).bytes;
    const bool ok = ForEachFrame(bytes, [&](const FrameView& f) {
      if (f.type != FrameType::kTupleBatch) return true;
      std::vector<Tuple> tuples;
      if (!DecodeTupleBatchOwned(f.payload, 4, &tuples).ok()) return false;
      for (const Tuple& t : tuples) {
        const int64_t a = t.value(0).unchecked_int64();
        if (FaninKeep(a)) {
          digest.Add(FaninTupleHash(a, t.value(1).string_view(),
                                    t.value(2).unchecked_int64()));
        }
      }
      return true;
    });
    if (!ok) return false;
  }
  if (!(digest == FaninReference(3, p, FaninTuplesPerConn(s, p)))) return false;

  for (int side = 0; side < 2; ++side) {
    const std::string bytes =
        EncodeConnection(WorkloadKind::kJoinAgg, s, 3, p, side, 1).bytes;
    int64_t closed = -1;
    int64_t tuples = 0;
    const bool ok = ForEachFrame(bytes, [&](const FrameView& f) {
      if (f.type == FrameType::kPunctuation) ++closed;
      if (f.type != FrameType::kTupleBatch) return true;
      std::vector<Tuple> batch;
      if (!DecodeTupleBatchOwned(f.payload, side == 0 ? 4 : 3, &batch).ok()) {
        return false;
      }
      for (const Tuple& t : batch) {
        if (t.value(1).unchecked_int64() / kWindowMs <= closed) return false;
      }
      tuples += static_cast<int64_t>(batch.size());
      return true;
    });
    const int64_t windows = JoinWindows(s, p);
    if (!ok || closed != windows - 1 || tuples != windows * kTuplesPerWindow) {
      return false;
    }
  }
  return true;
}

// With the sink at progress P, the saturation bytes the generator may
// have sent hold: on a join stream, every window below
// P + kSatWindowsInFlight and no tuple past the next window; on a fanin
// stream, kFaninSatInFlight kept tuples more than a quarter of P, to
// within one frame.
bool CheckClosedLoop() {
  const Sizes s = Sizes::Smoke();
  const PhaseKind p = PhaseKind::kSaturation;
  const EncodedStream join =
      EncodeConnection(WorkloadKind::kJoinAgg, s, 5, p, 0, 0);
  const int64_t windows = JoinWindows(s, p);
  for (int64_t progress = 0; progress <= windows; ++progress) {
    int64_t puncts = 0;
    int64_t last_window = -1;
    bool eos = false;
    const bool ok = ForEachFrame(
        std::string_view(join.bytes).substr(0, SendableBytes(join, progress)),
        [&](const FrameView& f) {
          puncts += f.type == FrameType::kPunctuation ? 1 : 0;
          eos = eos || f.type == FrameType::kEos;
          if (f.type != FrameType::kTupleBatch) return true;
          std::vector<Tuple> batch;
          if (!DecodeTupleBatchOwned(f.payload, 4, &batch).ok()) return false;
          for (const Tuple& t : batch) {
            last_window =
                std::max(last_window, t.value(1).unchecked_int64() / kWindowMs);
          }
          return true;
        });
    const int64_t want = std::min(progress + kSatWindowsInFlight, windows);
    if (!ok || puncts != want || eos != (want == windows) ||
        last_window > progress + kSatWindowsInFlight) {
      return false;
    }
  }

  const EncodedStream fanin =
      EncodeConnection(WorkloadKind::kIngestFanin, s, 5, p, 0, 0);
  // Kept tuples in the stream's bytes up to each frame boundary.
  std::map<size_t, int64_t> kept_before = {{0, 0}};
  int64_t kept = 0;
  std::string_view rest = fanin.bytes;
  while (!rest.empty()) {
    FrameView f;
    size_t consumed = 0;
    if (!ScanFrame(rest, &f, &consumed).ok() || consumed == 0) return false;
    if (f.type == FrameType::kTupleBatch) {
      std::vector<Tuple> batch;
      if (!DecodeTupleBatchOwned(f.payload, 4, &batch).ok()) return false;
      for (const Tuple& t : batch) {
        kept += FaninKeep(t.value(0).unchecked_int64()) ? 1 : 0;
      }
    }
    rest.remove_prefix(consumed);
    kept_before[fanin.bytes.size() - rest.size()] = kept;
  }
  for (int64_t progress = 0;; progress += kFaninProgressStep) {
    const size_t n = SendableBytes(fanin, progress);
    if (n == fanin.bytes.size()) return progress > 0;
    const auto at = kept_before.find(n);
    const int64_t cap = progress / kFaninConns + kFaninSatInFlight;
    if (at == kept_before.end() || at->second > cap ||
        at->second + kFaninFrameTuples <= cap) {
      return false;
    }
  }
}

}  // namespace

bool RunSelftest() {
  struct Check {
    const char* name;
    bool (*fn)();
  };
  const Check checks[] = {
      {"percentile math against a known distribution", CheckPercentiles},
      {"reference join/aggregate against a hand-computed 3-window input",
       CheckReferenceJoin},
      {"Definition-1 check catches a forged extra result", CheckDefinitionOne},
      {"generator produces identical bytes for the same seed",
       CheckGeneratorDeterminism},
      {"generator bytes carry the reference's tuples",
       CheckGeneratorAgainstReference},
      {"closed-loop saturation keeps the stated input in flight",
       CheckClosedLoop},
  };
  bool all = true;
  for (const Check& c : checks) {
    const bool ok = c.fn();
    std::printf("selftest %-66s %s\n", c.name, ok ? "PASS" : "FAIL");
    all = all && ok;
  }
  std::fflush(stdout);
  return all;
}

}  // namespace nstream::e2e
