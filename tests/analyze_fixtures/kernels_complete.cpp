// Clean twin of kernels_partial.cpp: every slot is assigned, and a table
// copy-seeded from it inherits its slots. Expected: zero findings.
#include "kernels.hpp"

KernelTable makeCompleteTable() {
  KernelTable table{};
  table.axpy = nullptr;
  table.scale = nullptr;
  table.fusedEwRows = nullptr;
  return table;
}

KernelTable makeDerivedTable() {
  KernelTable table = makeCompleteTable();
  table.scale = nullptr;
  return table;
}
