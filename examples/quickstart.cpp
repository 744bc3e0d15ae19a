// Quickstart: simulate one task that reads a file, computes, and writes a
// result through a simulated Linux page cache — then do it again and watch
// the cache work.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/quickstart
#include <iostream>

#include "pagecache/kernel_params.hpp"
#include "util/units.hpp"
#include "workflow/simulation.hpp"

int main() {
  using namespace pcs;
  using namespace pcs::util::literals;

  wf::Simulation sim;

  // A host: 1 Gflops per core, 8 cores, 16 GB of RAM, measured memory
  // bandwidths, and one SSD.
  plat::HostSpec host_spec;
  host_spec.name = "node0";
  host_spec.speed = 1e9;
  host_spec.cores = 8;
  host_spec.ram = 16_GB;
  host_spec.mem_read_bw = 6860_MBps;
  host_spec.mem_write_bw = 2764_MBps;
  plat::Host* host = sim.platform().add_host(host_spec);

  plat::DiskSpec disk_spec;
  disk_spec.name = "ssd0";
  disk_spec.read_bw = 510_MBps;
  disk_spec.write_bw = 420_MBps;
  disk_spec.capacity = 450_GiB;
  plat::Disk* disk = host->add_disk(sim.engine(), disk_spec);

  // Storage with a writeback page cache (Linux defaults: dirty_ratio 20%,
  // 30 s expiry, 5 s flusher period).
  storage::LocalStorage* storage =
      sim.create_local_storage(*host, *disk, cache::CacheMode::Writeback);

  // A two-task workflow: "process" reads raw data and writes a result;
  // "summarize" re-reads that result (and will hit the page cache).
  wf::ComputeService* compute = sim.create_compute_service(*host, *storage, 100_MB);
  wf::Workflow& workflow = sim.create_workflow();
  workflow.add_task("process", 5e9);  // 5 s of compute at 1 Gflops
  workflow.add_input("process", "raw.dat", 4_GB);
  workflow.add_output("process", "result.dat", 2_GB);
  workflow.add_task("summarize", 1e9);
  workflow.add_input("summarize", "result.dat", 2_GB);
  workflow.add_output("summarize", "summary.dat", 100_MB);
  compute->submit(workflow);

  sim.run();

  auto report = [&](const std::string& name) {
    const wf::TaskResult& r = compute->result(name);
    std::cout << name << ": read " << util::format_seconds(r.read_time()) << ", compute "
              << util::format_seconds(r.compute_time()) << ", write "
              << util::format_seconds(r.write_time()) << "\n";
  };
  report("process");
  report("summarize");

  // "summarize" read 2 GB that "process" had just written: the data came
  // from the page cache at memory bandwidth, not from the SSD.
  cache::CacheSnapshot snap = storage->snapshot();
  std::cout << "\nAt the end of the run (" << util::format_seconds(sim.now()) << "):\n"
            << "  page cache holds " << util::format_bytes(snap.cached) << " ("
            << util::format_bytes(snap.dirty) << " dirty)\n";
  for (const auto& [file, bytes] : snap.per_file) {
    std::cout << "    " << file << ": " << util::format_bytes(bytes) << "\n";
  }
  return 0;
}
