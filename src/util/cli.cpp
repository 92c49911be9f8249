#include "util/cli.h"

#include <algorithm>

#include "util/common.h"
#include "util/strutil.h"

namespace ngsx {

CliArgs::CliArgs(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!strutil::starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !strutil::starts_with(argv[i + 1], "--")) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

int64_t CliArgs::get_int(const std::string& name, int64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return def;
  }
  return strutil::parse_int<int64_t>(it->second, name.c_str());
}

double CliArgs::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return def;
  }
  return strutil::parse_double(it->second, name.c_str());
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return def;
  }
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  if (it->second == "false" || it->second == "0") {
    return false;
  }
  throw UsageError("bad boolean flag --" + name + "=" + it->second);
}

void CliArgs::reject_unknown(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw UsageError("unknown flag --" + name);
    }
  }
}

}  // namespace ngsx
