// bc-analyze fixture: narrowing casts on Bytes (rule V3).
#include <cstdint>

using Bytes = std::int64_t;

int clip(Bytes ledger) {
  return static_cast<int>(ledger);  // line 7
}

std::uint32_t wrap(Bytes ledger) {
  return static_cast<std::uint32_t>(ledger);  // line 11
}

double display(Bytes ledger) {
  return static_cast<double>(ledger);  // allowed: display conversion
}
