#include "event/simulator.h"

#include <stdexcept>

namespace dmap {

bool EventHandle::Cancel() {
  if (!record_ || record_->done) return false;
  record_->done = true;
  record_->action = nullptr;  // release captured state eagerly
  if (record_->cancelled_counter) ++*record_->cancelled_counter;
  return true;
}

EventHandle Simulator::ScheduleAt(SimTime when, std::function<void()> action) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::ScheduleAt: time in the past");
  }
  auto record = std::make_shared<EventHandle::Record>();
  record->action = std::move(action);
  record->cancelled_counter = cancelled_count_;
  queue_.push(QueueEntry{when, next_seq_++, record});
  return EventHandle(record);
}

EventHandle Simulator::ScheduleRepeating(SimTime period,
                                         std::function<bool()> action) {
  if (period <= SimTime::Zero()) {
    throw std::invalid_argument(
        "Simulator::ScheduleRepeating: period must be positive");
  }
  // Each tick reschedules itself while the action keeps returning true.
  // The lambda owns the action; self-capture is by value through the
  // shared wrapper so the chain stays alive across ticks.
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [this, period, action = std::move(action), tick]() {
    // The executing closure is the event record's own copy, so resetting
    // *tick here (to break the self-reference cycle once the series ends)
    // never destroys the code currently running.
    if (action()) {
      Schedule(period, *tick);
    } else {
      *tick = nullptr;
    }
  };
  return Schedule(period, *tick);
}

bool Simulator::SkipCancelled() {
  while (!queue_.empty() && queue_.top().record->done) {
    queue_.pop();
    --*cancelled_count_;
  }
  return !queue_.empty();
}

bool Simulator::Step() {
  if (!SkipCancelled()) return false;
  QueueEntry entry = queue_.top();
  queue_.pop();
  now_ = entry.when;
  entry.record->done = true;
  auto action = std::move(entry.record->action);
  ++executed_;
  action();
  return true;
}

std::uint64_t Simulator::Run() {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && Step()) ++n;
  return n;
}

std::uint64_t Simulator::RunUntil(SimTime deadline) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && SkipCancelled() &&
         queue_.top().when <= deadline) {
    Step();
    ++n;
  }
  return n;
}

void Simulator::ResetClock() {
  if (!Empty()) {
    throw std::logic_error("Simulator::ResetClock: events still pending");
  }
  while (!queue_.empty()) queue_.pop();  // cancelled leftovers only
  *cancelled_count_ = 0;
  now_ = SimTime::Zero();
}

void Simulator::Stop() {
  stop_requested_ = true;
  while (!queue_.empty()) queue_.pop();
  *cancelled_count_ = 0;
}

}  // namespace dmap
