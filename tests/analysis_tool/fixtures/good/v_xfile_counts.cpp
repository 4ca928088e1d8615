// V counter-fixture (with v_xfile_edge.hpp): a local `std::uint64_t c`
// is unsigned 64-bit, whatever an unrelated header names `c`.
#include <cstdint>
#include <vector>

std::uint64_t total(const std::vector<std::uint64_t>& counts) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) c += counts[i];
  return c;
}
