// Seeded violation: the zero-seeded table registers every plain slot but
// forgets the fused composite. Expected: exactly one kernel-table-complete
// finding naming 'fusedEwRows'.
#include "kernels.hpp"

KernelTable makeUnfusedTable() {
  KernelTable table{};
  table.axpy = nullptr;
  table.scale = nullptr;
  return table;
}
