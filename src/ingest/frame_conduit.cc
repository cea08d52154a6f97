#include "ingest/frame_conduit.h"

#include <unistd.h>

#include <algorithm>
#include <utility>

namespace nstream {

bool FrameConduit::OfferMuxFrame(uint64_t producer,
                                 std::string_view frame_bytes) {
  std::function<void()> notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (mux_bytes_ + frame_bytes.size() > mux_budget_ && !mux_.empty()) {
      // Over budget: per-connection backpressure. The pop that makes
      // room for the smallest refused frame wakes the producer side.
      refused_bytes_ = refused_bytes_ == 0
                           ? frame_bytes.size()
                           : std::min(refused_bytes_, frame_bytes.size());
      return false;
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
  // Wake the producer side once the smallest refused frame fits and
  // the queue is down to half its budget (or empty, for a frame larger
  // than the budget). Waking as soon as it fits would cost the popping
  // worker an eventfd wake per frame while producers keep the budget
  // full; at half, each wake admits a batch.
  if (refused_bytes_ != 0 &&
      (mux_.empty() || (mux_bytes_ * 2 <= mux_budget_ &&
                        mux_bytes_ + refused_bytes_ <= mux_budget_))) {
    refused_bytes_ = 0;
    SignalProducerLocked();
  }
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
  // The producer side drains the whole queue per wake, so only the
  // first frame onto an empty queue needs to wake it.
  const bool was_empty = feedback_.empty();
  while (feedback_.size() >= max_feedback_) {
    feedback_.pop_front();  // oldest first: newer intent supersedes
    ++feedback_dropped_;
  }
  feedback_.push_back(RoutedFeedback{producer, std::move(frame_bytes)});
  if (was_empty) SignalProducerLocked();
}

void FrameConduit::SetProducerWakeFd(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  producer_wake_fd_ = fd;
}

void FrameConduit::SignalProducerLocked() {
  if (producer_wake_fd_ < 0) return;
  const uint64_t one = 1;
  // Cannot block or fail short of the eventfd counter overflowing.
  [[maybe_unused]] ssize_t n =
      ::write(producer_wake_fd_, &one, sizeof(one));
}

uint64_t FrameConduit::feedback_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return feedback_dropped_;
}

}  // namespace nstream
