#ifndef E2EBENCH_PREPARE_H_
#define E2EBENCH_PREPARE_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace e2ebench {

/// Generates `spec`'s source stores and oracles for `seed` into `dir`
/// and writes DonePath(dir) last. Fails (exit 1) on any oracle
/// disagreement.
void Prepare(const WorkloadSpec& spec, uint64_t seed, const std::string& dir);

}  // namespace e2ebench

#endif  // E2EBENCH_PREPARE_H_
