// Per-layer probes of the traced run.  After a workload's timed calls, each
// probe batch times one layer's public calls on the workload's own output
// (the BonnRoute result on bulk, the ISR result on isr, the final session
// result on eco), each batch inside its own span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "routebench/spans.hpp"
#include "src/db/chip.hpp"
#include "src/router/bonnroute.hpp"

namespace routebench {

/// Metric values by name; units live in the metric tables of main.cpp.
using Values = std::map<std::string, double>;

/// One output check; a failed check makes the command exit non-zero.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Output checks by name.  A name fails if any of its instances failed, and
/// keeps the detail of its first failure.
class Checks {
 public:
  void expect(const std::string& name, bool ok, const std::string& detail);
  bool all_ok() const;
  const std::vector<Check>& list() const { return list_; }

 private:
  std::vector<Check> list_;
};

/// Runs every probe batch on `result` and stores the probe-sourced
/// per-layer metrics in `out`.  `seed` picks the sampled nets and replayed
/// connections; `result_path` is a scratch file for the load_result probe.
/// Adds the probes' checks, the search-core equality among them.
void run_probes(const bonn::Chip& chip, const bonn::RoutingResult& result,
                const bonn::FlowParams& params, std::uint64_t seed,
                const std::string& result_path, SpanRecorder& rec,
                Values& out, Checks& checks);

}  // namespace routebench
