#include "ingest/frame_conduit.h"

#include <utility>

namespace nstream {

bool FrameConduit::OfferMuxFrame(uint64_t producer,
                                 std::string_view frame_bytes) {
  std::function<void()> notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (mux_bytes_ + frame_bytes.size() > mux_budget_ && !mux_.empty()) {
      return false;  // over budget: per-connection backpressure
    }
    mux_bytes_ += frame_bytes.size();
    mux_.push_back(MuxFrame{producer, std::string(frame_bytes)});
    notify = data_notifier_;
  }
  if (notify) notify();
  return true;
}

void FrameConduit::ForceMuxFrame(uint64_t producer,
                                 std::string frame_bytes) {
  std::function<void()> notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    mux_bytes_ += frame_bytes.size();
    mux_.push_back(MuxFrame{producer, std::move(frame_bytes)});
    notify = data_notifier_;
  }
  if (notify) notify();
}

void FrameConduit::CloseWrite() {
  std::function<void()> notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    write_closed_ = true;
    notify = data_notifier_;
  }
  // The close itself is a wake-worthy event: a parked source must run
  // once more to end the stream.
  if (notify) notify();
}

std::optional<RoutedFeedback> FrameConduit::TryPopRoutedFeedback() {
  std::lock_guard<std::mutex> lock(mu_);
  if (feedback_.empty()) return std::nullopt;
  RoutedFeedback f = std::move(feedback_.front());
  feedback_.pop_front();
  return f;
}

std::optional<MuxFrame> FrameConduit::TryPopMuxFrame() {
  std::lock_guard<std::mutex> lock(mu_);
  if (mux_.empty()) return std::nullopt;
  MuxFrame f = std::move(mux_.front());
  mux_.pop_front();
  mux_bytes_ -= f.bytes.size();
  return f;
}

bool FrameConduit::HasMuxFrames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !mux_.empty();
}

size_t FrameConduit::mux_queued_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mux_bytes_;
}

bool FrameConduit::write_closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_closed_;
}

void FrameConduit::SetDataNotifier(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  data_notifier_ = std::move(fn);
}

void FrameConduit::PushFeedbackFrameTo(uint64_t producer,
                                       std::string frame_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  while (feedback_.size() >= max_feedback_) {
    feedback_.pop_front();  // oldest first: newer intent supersedes
    ++feedback_dropped_;
  }
  feedback_.push_back(RoutedFeedback{producer, std::move(frame_bytes)});
}

uint64_t FrameConduit::feedback_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return feedback_dropped_;
}

}  // namespace nstream
