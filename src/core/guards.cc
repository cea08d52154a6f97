#include "core/guards.h"

#include "common/string_util.h"

namespace nstream {

bool GuardSet::Add(const PunctPattern& pattern) {
  for (const PunctPattern& existing : patterns_) {
    if (existing.Subsumes(pattern)) return false;  // already covered
  }
  // Drop existing guards the new one covers.
  std::vector<PunctPattern> kept;
  std::vector<std::shared_ptr<const CompiledPattern>> kept_compiled;
  kept.reserve(patterns_.size() + 1);
  kept_compiled.reserve(patterns_.size() + 1);
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (!pattern.Subsumes(patterns_[i])) {
      kept.push_back(std::move(patterns_[i]));
      kept_compiled.push_back(std::move(compiled_[i]));
    }
  }
  kept.push_back(pattern);
  kept_compiled.push_back(CompiledPatternCache::Global().Get(pattern));
  patterns_ = std::move(kept);
  compiled_ = std::move(kept_compiled);
  ++total_installed_;
  return true;
}

bool GuardSet::Blocks(const Tuple& t) const {
  for (const std::shared_ptr<const CompiledPattern>& p : compiled_) {
    if (p->Matches(t)) {
      ++total_blocked_;
      return true;
    }
  }
  return false;
}

bool GuardSet::Blocks(const ColumnarBlock& b, uint32_t row) const {
  for (const std::shared_ptr<const CompiledPattern>& p : compiled_) {
    if (p->MatchesRow(b, row)) {
      ++total_blocked_;
      return true;
    }
  }
  return false;
}

int GuardSet::ExpireCovered(const Punctuation& punct) {
  std::vector<PunctPattern> kept;
  std::vector<std::shared_ptr<const CompiledPattern>> kept_compiled;
  kept.reserve(patterns_.size());
  kept_compiled.reserve(patterns_.size());
  int removed = 0;
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (punct.Covers(patterns_[i])) {
      ++removed;
    } else {
      kept.push_back(std::move(patterns_[i]));
      kept_compiled.push_back(std::move(compiled_[i]));
    }
  }
  patterns_ = std::move(kept);
  compiled_ = std::move(kept_compiled);
  total_expired_ += static_cast<uint64_t>(removed);
  return removed;
}

std::string GuardSet::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(patterns_.size());
  for (const PunctPattern& p : patterns_) parts.push_back(p.ToString());
  return "guards{" + Join(parts, "; ") + "}";
}

}  // namespace nstream
