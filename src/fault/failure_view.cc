#include "fault/failure_view.h"

#include <algorithm>
#include <stdexcept>

namespace dmap {

void FailureView::SetFailed(const std::vector<AsId>& ases) {
  windows_.clear();
  for (const AsId as : ases) {
    windows_[as] = {Window{SimTime::Zero(), kForever}};
  }
}

void FailureView::Fail(AsId as, SimTime from) {
  windows_[as].push_back(Window{from, kForever});
}

void FailureView::Recover(AsId as, SimTime at) {
  const auto it = windows_.find(as);
  if (it == windows_.end()) return;
  std::vector<Window>& windows = it->second;
  for (Window& w : windows) {
    if (w.up_at > at) w.up_at = std::max(at, w.down_at);
  }
  // Drop now-empty windows; erase the AS entirely when none remain.
  windows.erase(std::remove_if(windows.begin(), windows.end(),
                               [](const Window& w) {
                                 return w.up_at <= w.down_at;
                               }),
                windows.end());
  if (windows.empty()) windows_.erase(it);
}

void FailureView::AddWindow(AsId as, SimTime down_at, SimTime up_at) {
  if (down_at > up_at) {
    throw std::invalid_argument(
        "FailureView::AddWindow: down_at must be <= up_at");
  }
  if (down_at == up_at) return;  // empty outage
  windows_[as].push_back(Window{down_at, up_at});
}

void FailureView::AddPartition(AsId a, AsId b, SimTime down_at,
                               SimTime up_at) {
  if (a == b) {
    throw std::invalid_argument(
        "FailureView::AddPartition: endpoints must differ");
  }
  if (down_at > up_at) {
    throw std::invalid_argument(
        "FailureView::AddPartition: down_at must be <= up_at");
  }
  if (down_at == up_at) return;  // empty partition
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  partitions_[key].push_back(Window{down_at, up_at});
}

bool FailureView::IsPartitionedAt(AsId a, AsId b, SimTime t) const {
  if (partitions_.empty()) return false;
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  const auto it = partitions_.find(key);
  if (it == partitions_.end()) return false;
  for (const Window& w : it->second) {
    if (t >= w.down_at && t < w.up_at) return true;
  }
  return false;
}

bool FailureView::IsDownAt(AsId as, SimTime t) const {
  const auto it = windows_.find(as);
  if (it == windows_.end()) return false;
  for (const Window& w : it->second) {
    if (t >= w.down_at && t < w.up_at) return true;
  }
  return false;
}

std::vector<AsId> FailureView::FailedAt(SimTime t) const {
  std::vector<AsId> failed;
  for (const auto& [as, windows] : windows_) {
    for (const Window& w : windows) {
      if (t >= w.down_at && t < w.up_at) {
        failed.push_back(as);
        break;
      }
    }
  }
  return failed;  // std::map iteration: already ascending by AS id
}

bool FailureView::TimeVarying() const {
  for (const auto& [as, windows] : windows_) {
    for (const Window& w : windows) {
      if (w.down_at > SimTime::Zero() || w.up_at < kForever) return true;
    }
  }
  return false;
}

}  // namespace dmap
