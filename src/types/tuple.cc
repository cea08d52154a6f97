#include "types/tuple.h"

#include "common/string_util.h"

namespace nstream {

void Tuple::DestroyOwned() {
  for (uint32_t i = 0; i < size_; ++i) data_[i].~Value();
  ::operator delete(data_);
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(static_cast<size_t>(size()));
  for (int i = 0; i < size(); ++i) parts.push_back(value(i).ToString());
  return "<" + Join(parts, ", ") + ">";
}

}  // namespace nstream
