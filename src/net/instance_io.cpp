#include "bmp/net/instance_io.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace bmp::net {

namespace {
[[noreturn]] void fail(int line, const std::string& what) {
  throw std::invalid_argument("platform parse error, line " +
                              std::to_string(line) + ": " + what);
}
}  // namespace

PlatformFile parse_platform(std::istream& in) {
  double source_bw = -1.0;
  std::vector<double> open;
  std::vector<double> guarded;
  std::vector<std::string> open_labels;
  std::vector<std::string> guarded_labels;

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank / comment line
    double bw = 0.0;
    if (!(ls >> bw)) fail(line_no, "expected a bandwidth after '" + kind + "'");
    if (bw < 0.0) fail(line_no, "negative bandwidth");
    std::string label;
    ls >> label;  // optional
    if (kind == "source") {
      if (source_bw >= 0.0) fail(line_no, "duplicate source line");
      source_bw = bw;
    } else if (kind == "open") {
      open.push_back(bw);
      open_labels.push_back(label.empty() ? "open" + std::to_string(open.size())
                                          : label);
    } else if (kind == "guarded") {
      guarded.push_back(bw);
      guarded_labels.push_back(
          label.empty() ? "guarded" + std::to_string(guarded.size()) : label);
    } else {
      fail(line_no, "unknown record '" + kind + "' (source|open|guarded)");
    }
  }
  if (source_bw < 0.0) fail(line_no, "missing 'source' line");

  PlatformFile file{Instance(source_bw, open, guarded), {}};
  file.labels.reserve(1 + open_labels.size() + guarded_labels.size());
  file.labels.push_back("source");
  file.labels.insert(file.labels.end(), open_labels.begin(), open_labels.end());
  file.labels.insert(file.labels.end(), guarded_labels.begin(),
                     guarded_labels.end());
  return file;
}

PlatformFile parse_platform_string(const std::string& text) {
  std::istringstream in(text);
  return parse_platform(in);
}

std::string serialize_platform(const Instance& instance) {
  std::ostringstream os;
  os << "# bmpbcast platform (" << instance.n() << " open, " << instance.m()
     << " guarded)\n";
  os << "source " << instance.b(0) << "\n";
  for (int i = 1; i <= instance.n(); ++i) os << "open " << instance.b(i) << "\n";
  for (int i = instance.n() + 1; i < instance.size(); ++i) {
    os << "guarded " << instance.b(i) << "\n";
  }
  return os.str();
}

std::string serialize_scheme(const BroadcastScheme& scheme) {
  std::ostringstream os;
  for (int i = 0; i < scheme.num_nodes(); ++i) {
    for (const auto& [to, rate] : scheme.out_edges(i)) {
      os << i << " " << to << " " << rate << "\n";
    }
  }
  return os.str();
}

BroadcastScheme parse_scheme(std::istream& in, int num_nodes) {
  BroadcastScheme scheme(num_nodes);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    int from = 0;
    int to = 0;
    double rate = 0.0;
    if (!(ls >> from)) continue;
    if (!(ls >> to >> rate) || from < 0 || from >= num_nodes || to < 0 ||
        to >= num_nodes || !std::isfinite(rate)) {
      throw std::invalid_argument("scheme parse error, line " +
                                  std::to_string(line_no));
    }
    scheme.add(from, to, rate);
  }
  return scheme;
}

BroadcastScheme parse_scheme_string(const std::string& text, int num_nodes) {
  std::istringstream in(text);
  return parse_scheme(in, num_nodes);
}

}  // namespace bmp::net
