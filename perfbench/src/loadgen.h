// Open-loop load generator: one thread, up to a few connections, requests
// sent on a fixed schedule whatever the server's state.
//
// Between due times the generator sleeps in ppoll(2) with a nanosecond
// timeout (and a 1 ns timer slack), waking for responses or the next due
// time; it never spins.  Every request's latency runs from the instant it
// was *due*, so a stall also charges the requests queued behind it, and how
// late the generator itself sent each request is reported separately
// (loadgen.late_*) to validate the schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "net/wire.h"

namespace perfbench {

/// One request the schedule sends: a class index for the latency split,
/// and the complete request frame.
struct PlannedRequest {
  int kind = 0;
  std::string frame;
};

/// Builds request number `i` of the schedule.
using RequestSource = std::function<void(uint64_t i, PlannedRequest* out)>;

/// Checks one successful response payload; returns false on a wrong or
/// undecodable answer.  May be empty.
using ResponseCheck = std::function<bool(int kind, std::string_view payload)>;

inline constexpr int kMaxRequestKinds = 4;

struct OpenLoopResult {
  Samples latency_us[kMaxRequestKinds];  // from due time to response
  Samples all_latency_us;
  Samples late_us;                       // send time minus due time
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;         // SERVER_BUSY / RATE_LIMITED refusals
  uint64_t errors = 0;       // other error statuses, I/O and check failures
  uint64_t unanswered = 0;   // still outstanding at the drain deadline
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  double elapsed_s = 0.0;
  uint64_t failures() const { return busy + errors + unanswered; }
};

/// Runs the schedule: `rate` requests per second for `seconds`, dealt
/// round-robin over `fds` (connected binary-protocol sockets).  Waits up
/// to `drain_seconds` after the last send for outstanding responses.
OpenLoopResult RunOpenLoop(const std::vector<int>& fds, double rate,
                           double seconds, const RequestSource& source,
                           const ResponseCheck& check,
                           double drain_seconds = 2.0);

/// Closed loop at saturation: keeps `depth` requests outstanding on each
/// connection for `seconds`, sending the next as each response arrives.
/// Latencies run from send time.  Measures what the server sustains when
/// it never idles.
OpenLoopResult RunClosedLoop(const std::vector<int>& fds, size_t depth,
                             double seconds, const RequestSource& source,
                             const ResponseCheck& check);

/// Pins the calling thread to the CPU at `index` (mod the CPUs it may
/// use); index < 0 restores all of them.  Threads it creates afterwards
/// inherit the mask, so callers restore before starting any.
void PinCallingThread(int index);

}  // namespace perfbench
