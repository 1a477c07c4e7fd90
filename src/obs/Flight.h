//===- obs/Flight.h - funnel flight recorder --------------------*- C++ -*-===//
///
/// \file
/// A flight recorder for the verification funnel: a ring buffer of the
/// most recent task summaries plus a separate log of slow tasks (wall time
/// at or above SlowTaskThresholdNanos), dumped on demand (`flightText()`) or
/// automatically to stderr when a task fails (`noteTrap`). The point is
/// post-hoc diagnosability: when a budget-borderline SAT verdict flips or
/// an interpreter hang trips the fuel cap, the recorder shows what the
/// worker pool was doing in the moments before — without any tracing
/// enabled and at near-zero steady-state cost (one mutexed ring append per
/// completed task, nothing per span or per query).
///
/// Disabled by default; `svc` drivers flip it on alongside `--trace`.
///
//===----------------------------------------------------------------------===//

#ifndef LV_OBS_FLIGHT_H
#define LV_OBS_FLIGHT_H

#include <cstdint>
#include <string>

namespace lv {
namespace obs {

/// One completed task, as remembered by the recorder.
struct TaskRecord {
  std::string Name;    ///< Request name (e.g. TSVC test id).
  std::string Mode;    ///< Run mode ("pipeline", "sample", ...).
  std::string Summary; ///< One-line outcome (verdict / error).
  uint64_t WallNanos = 0;
  uint64_t EndNanos = 0; ///< traceClockNanos() at completion.
  bool Failed = false;
};

bool flightEnabled();
void setFlightEnabled(bool Enabled);

/// Wall time at or above which a task is additionally kept in the
/// slow-task log.
constexpr uint64_t SlowTaskThresholdNanos = 250'000'000; // 250 ms.

/// Appends \p R to the ring (and the slow log when over threshold).
/// No-op while disabled.
void recordTask(const TaskRecord &R);

/// Marks a trap/failure: records \p R with Failed forced true and dumps
/// the recorder to stderr so the context is preserved even if the process
/// dies next. No-op while disabled.
void noteTrap(const TaskRecord &R);

/// Human-readable dump: recent ring (oldest first), then the slow-task
/// log, then counts of everything seen since the last reset.
std::string flightText();

/// Tasks observed since the last resetFlight() (recorded or not — the ring
/// only keeps the tail).
uint64_t flightTasksSeen();

/// Clears ring, slow log, and counts; keeps enablement.
void resetFlight();

} // namespace obs
} // namespace lv

#endif // LV_OBS_FLIGHT_H
