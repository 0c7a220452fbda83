// polymg::obs — hardware-counter sampling via perf_event_open.
//
// One counter group per instance — cycles (leader), instructions, LLC
// misses — read atomically with PERF_FORMAT_GROUP so the three numbers
// cover exactly the same interval. Counters are opened on the calling
// thread (pid=0, cpu=-1) and follow it across CPUs, so a sample
// attributes only that thread's work: roofline attribution therefore
// runs the executor single-threaded (DESIGN.md §13 fallback ladder).
//
// Degradation is graceful, never fatal:
//  * non-Linux builds compile the syscall out — available() is false;
//  * a kernel that refuses the syscall (ENOSYS, EACCES under
//    perf_event_paranoid, missing PMU in containers/VMs) leaves
//    available() false and every start()/stop() a no-op;
//  * a PMU that multiplexes or zeroes a member still returns a sample —
//    consumers treat -1 fields as "unavailable", not as zero.
#pragma once

#include <cstdint>

namespace polymg::obs {

class PerfCounters {
public:
  struct Sample {
    std::int64_t cycles = -1;
    std::int64_t instructions = -1;
    std::int64_t llc_misses = -1;
    bool ok() const { return cycles >= 0 && instructions >= 0; }
  };

  /// Opens the counter group for the calling thread. Failure of any
  /// event leaves available() false (no partial groups).
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  bool available() const { return fd_cycles_ >= 0; }

  /// Zero and enable the group. No-op when unavailable.
  void start();

  /// Disable the group and read it. Returns an all -1 sample when
  /// unavailable or the read fails.
  Sample stop();

private:
  int fd_cycles_ = -1;
  int fd_instructions_ = -1;
  int fd_llc_ = -1;
};

}  // namespace polymg::obs
