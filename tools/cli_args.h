#pragma once

// Minimal flag parser for the c2b command-line tool: supports
// `--flag value`, `--flag=value`, and boolean `--flag`. Unknown flags are
// an error (typos should not silently do nothing). The parser cannot tell a
// known valued flag from an unknown one, so a valued flag that ends the
// line with no value is only judged at finish(): "needs a value" when the
// command queried it, "unknown flag" otherwise.

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace c2b::cli {

class Args {
 public:
  /// Parse argv[first..). `boolean_flags` take no value.
  Args(int argc, char** argv, int first, std::set<std::string> boolean_flags = {});

  /// Whether the flag was given a value (or is a given boolean flag).
  /// Counts as querying it.
  bool has(const std::string& flag) const {
    mark_used(flag);
    return values_.count(flag) > 0;
  }

  std::string get(const std::string& flag, const std::string& fallback) const;
  double get(const std::string& flag, double fallback) const;
  long long get(const std::string& flag, long long fallback) const;

  /// Optional-value flag (`--progress` / `--progress=N`): nullopt when the
  /// flag is absent, `bare_value` when present with no `=value` (the flag
  /// must be registered as boolean so the parser does not eat the next
  /// token), the parsed number otherwise.
  std::optional<long long> get_opt(const std::string& flag, long long bare_value) const;

  /// Flags that were parsed but never queried — call at the end to reject
  /// typos (`finish()` throws listing them), and a queried flag that was
  /// given no value (`finish()` throws naming it). Queries before finish()
  /// see such a flag as absent.
  void mark_used(const std::string& flag) const { used_.insert(flag); }
  void finish() const;

 private:
  std::map<std::string, std::string> values_;
  std::string valueless_;  ///< a trailing non-boolean flag with no value; empty if none
  mutable std::set<std::string> used_;
};

inline Args::Args(int argc, char** argv, int first, std::set<std::string> boolean_flags) {
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0)
      throw std::invalid_argument("expected a --flag, got '" + token + "'");
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    if (boolean_flags.count(token) > 0) {
      values_[token] = "true";
      continue;
    }
    if (i + 1 >= argc) {
      valueless_ = token;
      break;
    }
    values_[token] = argv[++i];
  }
}

inline std::string Args::get(const std::string& flag, const std::string& fallback) const {
  mark_used(flag);
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : it->second;
}

inline double Args::get(const std::string& flag, double fallback) const {
  mark_used(flag);
  const auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + flag + " needs a number, got '" +
                                it->second + "'");
  }
}

inline long long Args::get(const std::string& flag, long long fallback) const {
  mark_used(flag);
  const auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + flag + " needs an integer, got '" +
                                it->second + "'");
  }
}

inline std::optional<long long> Args::get_opt(const std::string& flag,
                                              long long bare_value) const {
  mark_used(flag);
  const auto it = values_.find(flag);
  if (it == values_.end()) return std::nullopt;
  if (it->second == "true") return bare_value;  // bare boolean form
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + flag + " needs an integer, got '" +
                                it->second + "'");
  }
}

inline void Args::finish() const {
  std::string unknown;
  for (const auto& [flag, value] : values_) {
    (void)value;
    if (used_.count(flag) == 0) unknown += " --" + flag;
  }
  if (!valueless_.empty() && used_.count(valueless_) == 0) unknown += " --" + valueless_;
  if (!unknown.empty()) throw std::invalid_argument("unknown flag(s):" + unknown);
  if (!valueless_.empty()) throw std::invalid_argument("flag --" + valueless_ + " needs a value");
}

}  // namespace c2b::cli
