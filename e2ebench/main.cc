// e2ebench: the end-to-end benchmark program (see e2ebench/README.md).
//
//   e2ebench prepare --workload W --seed N --data DIR
//   e2ebench run --workload W --seed N --data DIR --live DIR
//                --seconds S --trace 0|1 [--trace-out PATH]
//
// `prepare` generates the inputs and oracles; `run` measures and prints
// report lines followed by one JSON result line:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common.h"
#include "prepare.h"
#include "workloads.h"

namespace {

using e2ebench::Fail;

std::string Number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string ResultLine(const e2ebench::RunResult& result) {
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            Number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return line + "}}";
}

int Usage() {
  std::cerr << "usage: e2ebench prepare --workload W --seed N --data DIR\n"
               "       e2ebench run --workload W --seed N --data DIR "
               "--live DIR --seconds S --trace 0|1 [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto get = [&flags](const std::string& key) {
    const auto it = flags.find(key);
    if (it == flags.end()) Fail("missing --" + key);
    return it->second;
  };
  const auto number = [&get](const std::string& key) {
    const std::string text = get(key);
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0') Fail("--" + key + " must be a number");
    return static_cast<uint64_t>(value);
  };

  const uint64_t seed = number("seed");
  const e2ebench::WorkloadSpec spec = e2ebench::MakeSpec(get("workload"), seed);
  if (command == "prepare") {
    e2ebench::Prepare(spec, seed, get("data"));
    return 0;
  }
  if (command != "run") return Usage();
  e2ebench::RunOptions options;
  options.seed = seed;
  options.data_dir = get("data");
  options.live_dir = get("live");
  options.seconds = static_cast<double>(number("seconds"));
  options.trace = number("trace") != 0;
  if (flags.count("trace-out") != 0) options.trace_out = flags["trace-out"];
  if (options.seconds <= 0) Fail("--seconds must be positive");

  const e2ebench::RunResult result = e2ebench::RunWorkload(spec, options);
  for (const std::string& note : result.notes) std::cout << note << "\n";
  std::cout << ResultLine(result) << std::endl;
  return 0;
}
