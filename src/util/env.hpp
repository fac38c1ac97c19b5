// Strict environment-variable parsing.
//
// BONN_THREADS / BONN_DEADLINE_S / BONN_MEM_GB and friends used to go
// through atoi(), which silently turns "banana" into 0 and "4x" into 4.
// These helpers parse the *whole* value or reject it: garbage becomes a
// structured "env.parse" error naming the variable, so the flow boundary
// fails fast instead of running with a default the caller did not ask for.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/util/error.hpp"

namespace bonn {

/// Parse `text` as a base-10 integer; the full string must be consumed
/// (leading/trailing whitespace allowed).
std::optional<long long> parse_int(const std::string& text);

/// Parse `text` as a finite double; the full string must be consumed.
std::optional<double> parse_double(const std::string& text);

/// getenv(name) parsed as an integer in [min, max].  Unset → nullopt, no
/// error.  Set but malformed or out of range → nullopt plus a FlowError
/// with code "env.parse" naming the variable and the offending text.
std::optional<long long> env_int(const char* name, long long min,
                                 long long max,
                                 std::vector<FlowError>& errors);

/// getenv(name) parsed as a finite double in [min, max]; same contract.
std::optional<double> env_double(const char* name, double min, double max,
                                 std::vector<FlowError>& errors);

/// getenv(name) parsed as a flag (obs::parse_flag: 1/y/yes/t/true/on or
/// 0/n/no/f/false/off, any case); same contract.
std::optional<bool> env_bool(const char* name, std::vector<FlowError>& errors);

}  // namespace bonn
