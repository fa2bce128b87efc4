#include "accountnet/sim/simulator.hpp"

#include "accountnet/util/ensure.hpp"

namespace accountnet::sim {

void Simulator::schedule(Duration delay, std::function<void()> fn) {
  AN_ENSURE_MSG(delay >= 0, "cannot schedule into the past");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_at(TimePoint when, std::function<void()> fn) {
  AN_ENSURE_MSG(when >= now_, "cannot schedule into the past");
  queue_.push(Event{when, next_seq_++, std::move(fn)});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; move out via const_cast is UB-adjacent,
  // so copy the function handle (cheap: shared state inside std::function).
  Event ev = queue_.top();
  queue_.pop();
  now_ = ev.when;
  ++events_processed_;
  ev.fn();
  return true;
}

void Simulator::run_until(TimePoint deadline) {
  while (!queue_.empty() && queue_.top().when <= deadline) {
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  while (step()) {
  }
}

std::size_t Simulator::pending() const { return queue_.size(); }

std::optional<TimePoint> Simulator::next_event_time() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.top().when;
}

}  // namespace accountnet::sim
