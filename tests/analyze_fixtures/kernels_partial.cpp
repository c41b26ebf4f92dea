// Seeded violation: the zero-seeded table assigns axpy but never scale.
// Expected: exactly one kernel-table-complete finding naming 'scale'.
#include "kernels.hpp"

KernelTable makePartialTable() {
  KernelTable table{};
  table.axpy = nullptr;
  table.fusedEwRows = nullptr;
  return table;
}
