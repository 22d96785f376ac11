// Minimal command-line argument parser for the ffp tools: --flag value
// pairs, --switch booleans, and positional arguments, with typed access and
// a generated usage string. No external dependencies, deliberately small.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace ffp {

class ArgParser {
 public:
  /// Registers an option before parse(). `fallback` empty string means the
  /// option is a boolean switch.
  ArgParser& flag(const std::string& name, const std::string& fallback,
                  const std::string& help) {
    FFP_CHECK(!specs_.count(name), "duplicate flag --", name);
    specs_[name] = {fallback, help, false};
    return *this;
  }
  ArgParser& toggle(const std::string& name, const std::string& help) {
    FFP_CHECK(!specs_.count(name), "duplicate flag --", name);
    specs_[name] = {"false", help, true};
    return *this;
  }

  /// Parses argv. Throws ffp::Error on unknown flags or missing values.
  void parse(int argc, const char* const* argv) {
    program_ = argc > 0 ? argv[0] : "ffp";
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (starts_with(arg, "--")) {
        const std::string name(arg.substr(2));
        const auto it = specs_.find(name);
        FFP_CHECK(it != specs_.end(), "unknown flag --", name, "\n", usage());
        if (it->second.is_toggle) {
          values_[name] = "true";
        } else {
          FFP_CHECK(i + 1 < argc, "missing value for --", name);
          values_[name] = argv[++i];
        }
      } else {
        positional_.emplace_back(arg);
      }
    }
  }

  std::string get(const std::string& name) const {
    const auto spec = specs_.find(name);
    FFP_CHECK(spec != specs_.end(), "flag --", name, " was never registered");
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : spec->second.fallback;
  }

  std::int64_t get_int(const std::string& name) const {
    const auto v = parse_int(get(name));
    FFP_CHECK(v.has_value(), "--", name, " expects an integer, got '",
              get(name), "'");
    return *v;
  }

  double get_double(const std::string& name) const {
    const auto v = parse_double(get(name));
    FFP_CHECK(v.has_value(), "--", name, " expects a number, got '",
              get(name), "'");
    return *v;
  }

  bool get_bool(const std::string& name) const { return get(name) == "true"; }

  /// A comma-separated port list ("17917,17918"); empty entries skipped.
  std::vector<int> get_ports(const std::string& name) const {
    std::vector<int> ports;
    const std::string csv = get(name);
    for (std::size_t start = 0; start <= csv.size();) {
      const std::size_t comma = std::min(csv.find(',', start), csv.size());
      const std::string_view piece =
          trim(std::string_view(csv).substr(start, comma - start));
      if (!piece.empty()) {
        const auto port = parse_int(piece);
        FFP_CHECK(port.has_value() && *port >= 1 && *port <= 65535, "--",
                  name, " entries must be ports (1..65535), got '",
                  std::string(piece), "'");
        ports.push_back(static_cast<int>(*port));
      }
      start = comma + 1;
    }
    return ports;
  }

  bool was_set(const std::string& name) const { return values_.count(name) > 0; }

  const std::vector<std::string>& positional() const { return positional_; }

  std::string usage() const {
    std::string out = "usage: " + program_ + " [flags] [args]\n";
    for (const auto& [name, spec] : specs_) {
      out += "  --" + name;
      if (!spec.is_toggle) out += " <" + (spec.fallback.empty() ? std::string("value") : spec.fallback) + ">";
      out += "  " + spec.help + "\n";
    }
    return out;
  }

 private:
  struct Spec {
    std::string fallback;
    std::string help;
    bool is_toggle = false;
  };
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string program_ = "ffp";
};

}  // namespace ffp
