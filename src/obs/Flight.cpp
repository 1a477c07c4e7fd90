//===- obs/Flight.cpp - funnel flight recorder ----------------------------===//

#include "obs/Flight.h"

#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>

namespace lv {
namespace obs {

namespace {

constexpr size_t RingCapacity = 256;
constexpr size_t SlowCapacity = 128;

struct FlightState {
  std::mutex Mu;
  std::deque<TaskRecord> Ring;
  std::deque<TaskRecord> Slow;
  uint64_t TasksSeen = 0;
  uint64_t Failures = 0;
};

FlightState &flightState() {
  static FlightState S;
  return S;
}

std::atomic<bool> Enabled{false};

void appendRecord(std::string &Out, const TaskRecord &R) {
  char Line[512];
  std::snprintf(Line, sizeof(Line), "  %-14s %-8s %8.3f ms  %s%s\n",
                R.Name.c_str(), R.Mode.c_str(),
                static_cast<double>(R.WallNanos) / 1e6,
                R.Failed ? "FAILED " : "", R.Summary.c_str());
  Out += Line;
}

void recordLocked(FlightState &S, const TaskRecord &R) {
  ++S.TasksSeen;
  if (R.Failed)
    ++S.Failures;
  S.Ring.push_back(R);
  if (S.Ring.size() > RingCapacity)
    S.Ring.pop_front();
  if (R.WallNanos >= SlowTaskThresholdNanos) {
    S.Slow.push_back(R);
    if (S.Slow.size() > SlowCapacity)
      S.Slow.pop_front();
  }
}

std::string textLocked(FlightState &S) {
  std::string Out;
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "flight recorder: %llu tasks seen, %llu failed, "
                "%zu in ring, %zu slow (threshold %.1f ms)\n",
                static_cast<unsigned long long>(S.TasksSeen),
                static_cast<unsigned long long>(S.Failures), S.Ring.size(),
                S.Slow.size(),
                static_cast<double>(SlowTaskThresholdNanos) / 1e6);
  Out += Line;
  if (!S.Ring.empty()) {
    Out += "recent tasks (oldest first):\n";
    for (const TaskRecord &R : S.Ring)
      appendRecord(Out, R);
  }
  if (!S.Slow.empty()) {
    Out += "slow tasks:\n";
    for (const TaskRecord &R : S.Slow)
      appendRecord(Out, R);
  }
  return Out;
}

} // namespace

bool flightEnabled() { return Enabled.load(std::memory_order_relaxed); }

void setFlightEnabled(bool E) {
  Enabled.store(E, std::memory_order_relaxed);
}

void recordTask(const TaskRecord &R) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  FlightState &S = flightState();
  std::lock_guard<std::mutex> Lock(S.Mu);
  recordLocked(S, R);
}

void noteTrap(const TaskRecord &R) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  FlightState &S = flightState();
  std::string Text;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    TaskRecord Failed = R;
    Failed.Failed = true;
    recordLocked(S, Failed);
    Text = textLocked(S);
  }
  std::fprintf(stderr, "=== obs flight dump (trap in %s) ===\n%s",
               R.Name.c_str(), Text.c_str());
}

std::string flightText() {
  FlightState &S = flightState();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return textLocked(S);
}

uint64_t flightTasksSeen() {
  FlightState &S = flightState();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.TasksSeen;
}

void resetFlight() {
  FlightState &S = flightState();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Ring.clear();
  S.Slow.clear();
  S.TasksSeen = 0;
  S.Failures = 0;
}

} // namespace obs
} // namespace lv
