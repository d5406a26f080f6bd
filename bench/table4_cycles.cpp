// Regenerates the corresponding artifact of the paper's evaluation section
// through the parallel experiment engine (see bench_util.hpp for flags).
#include "bench_util.hpp"
#include "report/experiments.hpp"

int main(int argc, char** argv) {
  return ttsc::bench::run_harness(argc, argv, ttsc::report::render_table4_cycles);
}
