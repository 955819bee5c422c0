#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace e2ebench {

struct RunOptions {
  uint64_t seed = 0;
  std::string data_dir;   // what `prepare` wrote
  std::string live_dir;   // stores and socket of this run
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump of the traced run ("" = none)
};

/// Runs the workload: set-up, a closed loop for `seconds` whose every
/// output is byte-checked against the prepared oracles, and the
/// metrics. Untraced runs fill the end-to-end metrics; traced runs
/// split the time into an untraced and a traced half and fill the
/// per-layer metrics. Any mismatch exits 1 before a result exists.
RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
