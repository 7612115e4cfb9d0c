// Plain-text serialization of platforms and schemes, so the library is
// usable as a standalone planner (tools/bmp_plan) and results can be
// archived / diffed.
//
// Platform format (comments with '#', blank lines ignored):
//     source  <bandwidth>
//     open    <bandwidth> [name]
//     guarded <bandwidth> [name]
// Scheme format: one edge per line:
//     <from> <to> <rate>
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"

namespace bmp::net {

struct PlatformFile {
  Instance instance;
  /// Optional labels in *input* order (index by Instance::original_id).
  std::vector<std::string> labels;
};

/// Parses the platform format above; throws std::invalid_argument with a
/// line number on malformed input.
PlatformFile parse_platform(std::istream& in);
PlatformFile parse_platform_string(const std::string& text);

std::string serialize_platform(const Instance& instance);

/// Scheme round trip. Parsing throws std::invalid_argument with a line
/// number on a malformed line, a node id outside [0, num_nodes) or a
/// non-finite rate.
std::string serialize_scheme(const BroadcastScheme& scheme);
BroadcastScheme parse_scheme(std::istream& in, int num_nodes);
BroadcastScheme parse_scheme_string(const std::string& text, int num_nodes);

}  // namespace bmp::net
