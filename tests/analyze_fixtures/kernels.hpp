// Miniature KernelTable for the kernel-table-complete fixtures: two plain
// slots and one fused composite slot.
#pragma once

struct KernelTable {
  void (*axpy)(float*, const float*, int);
  void (*scale)(float*, float, int);
  void (*fusedEwRows)(const float* const*, float*, int);
};
