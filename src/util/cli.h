// ngsx/util/cli.h
//
// Minimal command-line flag parser for the example programs and benchmark
// harnesses: `--name=value` / `--name value` / boolean `--name`.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ngsx {

/// Parses flags of the form --key=value, --key value, and bare --key, plus
/// positional arguments. Every flag is kept; a tool validates its own set
/// with reject_unknown().
class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& def) const;
  int64_t get_int(const std::string& name, int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Throws UsageError naming the first flag seen that is not in `known`.
  void reject_unknown(std::initializer_list<std::string_view> known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ngsx
