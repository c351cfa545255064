#pragma once

// Shared console output for the bench binaries.

#include <cstdio>
#include <string>

#include "c2b/common/table.h"

namespace c2b::bench {

/// Print a table under a titled banner.
inline void print_table(const std::string& title, const Table& table) {
  std::printf("\n=== %s ===\n%s", title.c_str(), table.to_string().c_str());
}

}  // namespace c2b::bench
