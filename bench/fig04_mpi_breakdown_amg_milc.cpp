// Figure 4: time spent in computation vs. communication and in the
// dominant MPI routines for AMG and MILC on 512 nodes (best / average /
// worst run). Paper: AMG ~82% MPI at 512 nodes (Iprobe, Test, Testall,
// Waitall, Allreduce); MILC ~89% MPI (Allreduce, Wait, Isend, Irecv);
// compute time barely varies (no OS noise), MPI time varies a lot.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dfv;
  bench::print_header("Figure 4",
                      "Compute/MPI split and MPI routine breakdown: AMG & MILC, 512 nodes");
  const auto campaign = bench::load_campaign();
  bench::print_mpi_breakdown(campaign.dataset("AMG", 512));
  bench::print_mpi_breakdown(campaign.dataset("MILC", 512));
  std::cout << "Shape to match: MPI time varies strongly between best and worst runs\n"
               "while compute time stays nearly constant; AMG dominated by Iprobe /\n"
               "Test / Testall / Waitall + Allreduce, MILC by Wait / Isend / Irecv +\n"
               "Allreduce.\n";
  return 0;
}
