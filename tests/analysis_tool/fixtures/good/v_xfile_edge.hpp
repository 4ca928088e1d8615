// V counter-fixture (with v_xfile_counts.cpp): a header whose `Bytes c`
// parameter puts the name `c` in the cross-file int64 table.
#include <cstdint>

using Bytes = std::int64_t;

struct Edge {
  Edge(int to, Bytes c) : to_(to), c_(c) {}
  int to_;
  Bytes c_;
};
