// griphon_e2e: one end-to-end workload run, one process, one thread.
//
//   griphon_e2e --workload churn|storm|bod|reopt --seed N [--trace]
//               [--size full|smoke]
//
// The run pre-generates its inputs from the seed, drives them through the
// program's public service calls as fast as the simulator goes, checks the
// outcome, and prints one JSON object (metrics, raw sample sets, checks) as
// its last line of output. It exits non-zero if any correctness check
// failed. bench/e2e/run.py is the user-facing entry point: it builds this
// binary, repeats runs and turns the sample sets into percentiles.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::cerr << "usage: griphon_e2e --workload churn|storm|bod|reopt --seed N"
               " [--trace] [--size full|smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage();
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--size" && has_value) {
      const std::string size = argv[++i];
      if (size == "full")
        options.size = e2e::Size::kFull;
      else if (size == "smoke")
        options.size = e2e::Size::kSmoke;
      else
        return usage();
    } else {
      return usage();
    }
  }
  const bool circuits = options.workload == "churn" ||
                        options.workload == "storm" ||
                        options.workload == "reopt";
  if (!circuits && options.workload != "bod") return usage();

  try {
    e2e::Report report =
        circuits ? e2e::run_circuits(options) : e2e::run_bod(options);
    report.text("workload", options.workload);
    report.text("seed", std::to_string(options.seed));
    report.text("size", options.size == e2e::Size::kSmoke ? "smoke" : "full");
    report.text("traced", options.trace ? "1" : "0");
    std::cout << report.to_json() << std::endl;
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "griphon_e2e: " << e.what() << "\n";
    return 3;
  }
}
