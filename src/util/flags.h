// Minimal declarative command-line flag parser.
//
// One shared implementation for the bench binaries and tools, which had
// each grown their own ad-hoc `--key=value` loops.  Flags are registered
// against a target variable; parse() fills the targets in place and
// reports help/error outcomes instead of exiting, so callers own their
// process lifecycle.
//
// Supported shapes:
//   --name=<value>   string / double / integer flags
//   --name           boolean presence flags
//   --help, -h       recognised automatically (Result::kHelp)
//
// Registration order is presentation order in print_usage().  Unknown
// options and malformed values yield Result::kError with error() set;
// targets already parsed by then keep their new values, so callers should
// treat a kError parse as fatal (every binary here exits 2).
//
// Thread-safety: none -- a FlagParser is built, used and dropped on one
// thread during startup.  Target pointers must outlive parse().
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace edm::util {

class FlagParser {
 public:
  enum class Result { kOk, kHelp, kError };

  void add_string(const char* name, std::string* target, const char* help) {
    add_value(name, help, [target](const std::string& v) {
      *target = v;
      return true;
    });
  }

  void add_double(const char* name, double* target, const char* help) {
    add_value(name, help, [target](const std::string& v) {
      char* end = nullptr;
      const double parsed = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') return false;
      *target = parsed;
      return true;
    });
  }

  void add_uint32(const char* name, std::uint32_t* target, const char* help) {
    add_value(name, help, [target](const std::string& v) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
      *target = static_cast<std::uint32_t>(parsed);
      return true;
    });
  }

  void add_uint16(const char* name, std::uint16_t* target, const char* help) {
    add_value(name, help, [target](const std::string& v) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
      *target = static_cast<std::uint16_t>(parsed);
      return true;
    });
  }

  void add_int32(const char* name, std::int32_t* target, const char* help) {
    add_value(name, help, [target](const std::string& v) {
      char* end = nullptr;
      const long parsed = std::strtol(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
      *target = static_cast<std::int32_t>(parsed);
      return true;
    });
  }

  /// Repeatable value flag: every `--name=<v>` occurrence appends to
  /// *target in command-line order (e.g. a list of scheduled fault
  /// events).
  void add_string_list(const char* name, std::vector<std::string>* target,
                       const char* help) {
    add_value(name, help, [target](const std::string& v) {
      target->push_back(v);
      return true;
    });
  }

  /// Presence flag: `--name` sets *target to true (no value accepted).
  void add_bool(const char* name, bool* target, const char* help) {
    flags_.push_back(Flag{name, help, /*takes_value=*/false,
                          [target](const std::string&) {
                            *target = true;
                            return true;
                          }});
  }

  Result parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") return Result::kHelp;
      if (!parse_one(arg)) return Result::kError;
    }
    return Result::kOk;
  }

  /// Set after Result::kError: which argument failed and why.
  const std::string& error() const { return error_; }

  /// Whether `name` (with its leading "--") was parsed from the command
  /// line, as opposed to keeping its default.
  bool seen(const std::string& name) const {
    return std::find(seen_.begin(), seen_.end(), name) != seen_.end();
  }

  void print_usage(std::ostream& os, const char* prog) const {
    os << "usage: " << prog;
    for (const Flag& f : flags_) {
      os << " [" << f.name << (f.takes_value ? "=<v>" : "") << "]";
    }
    os << "\n";
    for (const Flag& f : flags_) {
      os << "  " << f.name << (f.takes_value ? "=<v>" : "") << "\t"
         << f.help << "\n";
    }
  }

 private:
  struct Flag {
    std::string name;  // including the leading "--"
    std::string help;
    bool takes_value;
    std::function<bool(const std::string&)> set;
  };

  void add_value(const char* name, const char* help,
                 std::function<bool(const std::string&)> set) {
    flags_.push_back(Flag{name, help, /*takes_value=*/true, std::move(set)});
  }

  bool parse_one(const std::string& arg) {
    // Split on the first '=' so every failure can name the flag it was
    // aimed at, not just echo the raw argument.
    const std::string::size_type eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    for (const Flag& f : flags_) {
      if (name != f.name) continue;
      seen_.push_back(f.name);
      if (f.takes_value) {
        if (eq == std::string::npos) {
          error_ = "missing value for " + f.name + " (expected " + f.name +
                   "=<value>)";
          return false;
        }
        const std::string value = arg.substr(eq + 1);
        if (!f.set(value)) {
          error_ = "bad value for " + f.name + ": '" + value + "'";
          return false;
        }
        return true;
      }
      if (eq != std::string::npos) {
        error_ = f.name + " is a presence flag and takes no value (got '" +
                 arg + "')";
        return false;
      }
      f.set("");
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: '" + arg +
               "' (options use --name or --name=<value>)";
      return false;
    }
    error_ = "unknown option: " + name + " (see --help for the flag list)";
    return false;
  }

  std::vector<Flag> flags_;
  std::vector<std::string> seen_;
  std::string error_;
};

}  // namespace edm::util
